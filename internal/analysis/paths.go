package analysis

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/routing"
	"ovhweather/internal/wmap"
)

// Path-stability analysis: the paper's Discussion proposes correlating
// traceroute measurements "with the evolution of routing and link loads".
// This study runs synthetic traceroutes between fixed router pairs across
// the stream and reports when their paths change — which, on a healthy
// backbone, happens exactly when the topology does.

// PathChange is one observed reroute.
type PathChange struct {
	From, To   time.Time
	Src, Dst   string
	OldPath    routing.Path
	NewPath    routing.Path
	TopoChange bool // the same interval also changed the topology
}

// PathStabilityView summarizes the study.
type PathStabilityView struct {
	Pairs      int
	Snapshots  int
	Traces     int
	Changes    []PathChange
	Correlated int // changes coinciding with a topology change
}

// PathStabilityStudy traces the given router pairs on every snapshot.
// Pairs whose routers are absent from a snapshot are skipped for that
// snapshot (routers come and go across two years).
//
//lint:ignore wmlint/deadexport routing-substrate extension (README "Beyond the paper")
func PathStabilityStudy(src Stream, pairs [][2]string) (*PathStabilityView, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("analysis: no router pairs to trace")
	}
	view := &PathStabilityView{Pairs: len(pairs)}
	prevPaths := make(map[[2]string]routing.Path)
	var tr events.ChurnTracker // a topology change is a diff that is not empty
	var prevTime time.Time

	err := src(func(m *wmap.Map) error {
		view.Snapshots++
		g := routing.NewGraph(m)
		diff, _ := tr.Observe(m)
		topoChanged := diff != nil
		for _, pair := range pairs {
			p, err := g.Trace(pair[0], pair[1])
			if err != nil {
				continue // pair absent or disconnected in this snapshot
			}
			view.Traces++
			if old, ok := prevPaths[pair]; ok && !reflect.DeepEqual(old, p) {
				ch := PathChange{
					From: prevTime, To: m.Time,
					Src: pair[0], Dst: pair[1],
					OldPath: old, NewPath: p,
					TopoChange: topoChanged,
				}
				view.Changes = append(view.Changes, ch)
				if topoChanged {
					view.Correlated++
				}
			}
			prevPaths[pair] = p
		}
		prevTime = m.Time
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

// WritePathStability renders the study.
//
//lint:ignore wmlint/deadexport renders PathStabilityStudy (README "Beyond the paper")
func WritePathStability(w io.Writer, v *PathStabilityView) {
	fmt.Fprintf(w, "Path stability — %d pairs, %d traces over %d snapshots: %d reroute(s), %d correlated with topology changes\n",
		v.Pairs, v.Traces, v.Snapshots, len(v.Changes), v.Correlated)
	for i, c := range v.Changes {
		if i >= 8 {
			fmt.Fprintf(w, "  ... and %d more\n", len(v.Changes)-i)
			break
		}
		tag := "no topology change (load-only window)"
		if c.TopoChange {
			tag = "topology changed in the same interval"
		}
		fmt.Fprintf(w, "  %s: %s -> %s rerouted (%d -> %d hops; %s)\n",
			c.To.Format("2006-01-02"), c.Src, c.Dst, c.OldPath.Hops(), c.NewPath.Hops(), tag)
	}
}
