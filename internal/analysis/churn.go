package analysis

import (
	"fmt"
	"io"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// ChurnEvent is one topology change point with the names behind it — the
// concrete version of a Figure 4a count step.
type ChurnEvent struct {
	From, To time.Time
	Diff     *wmap.Diff
}

// ChurnView lists every snapshot-to-snapshot interval in which the
// topology changed.
type ChurnView struct {
	Events    []ChurnEvent
	Snapshots int
}

// ChurnStudy consumes a stream and diffs consecutive snapshots, keeping the
// intervals with topology changes. Load-only changes are ignored (they
// happen at every snapshot). The comparison itself is events.ChurnTracker,
// which diffs with wmap.Compare as the live write-time detector does.
func ChurnStudy(src Stream) (*ChurnView, error) {
	view := &ChurnView{}
	var tr events.ChurnTracker
	var prev time.Time
	err := src(func(m *wmap.Map) error {
		view.Snapshots++
		if d, _ := tr.Observe(m); d != nil {
			view.Events = append(view.Events, ChurnEvent{From: prev, To: m.Time, Diff: d})
		}
		prev = m.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	if view.Snapshots == 0 {
		return nil, fmt.Errorf("analysis: empty stream")
	}
	return view, nil
}

// WriteChurn renders the change points with their router names.
func WriteChurn(w io.Writer, v *ChurnView) {
	fmt.Fprintf(w, "Topology churn — %d change point(s) across %d snapshots\n", len(v.Events), v.Snapshots)
	for _, e := range v.Events {
		fmt.Fprintf(w, "  %s -> %s:\n", e.From.Format("2006-01-02"), e.To.Format("2006-01-02"))
		for _, n := range e.Diff.NodesAdded {
			fmt.Fprintf(w, "    + %s (%s)\n", n.Name, n.Kind)
		}
		for _, n := range e.Diff.NodesRemoved {
			fmt.Fprintf(w, "    - %s (%s)\n", n.Name, n.Kind)
		}
		added, removed := 0, 0
		for _, l := range e.Diff.LinksAdded {
			added += l.Count
		}
		for _, l := range e.Diff.LinksRemoved {
			removed += l.Count
		}
		if added > 0 || removed > 0 {
			fmt.Fprintf(w, "    links: +%d / -%d\n", added, removed)
		}
	}
}
