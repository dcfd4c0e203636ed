package analysis

import (
	"fmt"
	"io"
	"sort"

	"ovhweather/internal/wmap"
)

// Congestion analysis: the paper observes that "congestion inside the
// network happens occasionally" (Figure 5b's thin tail above 60 %) and its
// Discussion points at persistent interdomain congestion inference as the
// natural follow-up. This view finds the links that run hot repeatedly, not
// just in one snapshot.

// CongestionOptions tunes the detector.
type CongestionOptions struct {
	// Threshold is the load (%) above which a direction counts as congested
	// in one snapshot.
	Threshold wmap.Load
	// PersistFraction is the minimum fraction of observed snapshots a link
	// direction must exceed the threshold in to be reported as persistently
	// congested.
	PersistFraction float64
}

// DefaultCongestionOptions flags directions above 60 % (the paper's "very
// few loads exceed 60 %") in at least a quarter of their snapshots.
func DefaultCongestionOptions() CongestionOptions {
	return CongestionOptions{Threshold: 60, PersistFraction: 0.25}
}

// CongestedLink is one persistently hot link direction.
type CongestedLink struct {
	From, To  string
	Label     string
	Ordinal   int     // position among the parallels from this endpoint
	HotShare  float64 // fraction of snapshots above threshold
	PeakLoad  wmap.Load
	Snapshots int
}

// CongestionView is the detector's output.
type CongestionView struct {
	Options      CongestionOptions
	Snapshots    int
	Observations int     // directed load readings examined
	HotReadings  int     // readings above threshold
	HotFraction  float64 // HotReadings / Observations
	Persistent   []CongestedLink
}

// CongestionStudy consumes a stream and reports occasional congestion
// (fraction of hot readings, Figure 5b's tail) and the links that are hot
// persistently. Directions are identified by wmap.DirKey, as the live
// congestion detector identifies them, so offline and live agree on which
// physical direction is which. Each topology is indexed once
// (wmap.Topology): every direction's accumulator is resolved into a slice
// the following snapshots index by link position.
func CongestionStudy(src Stream, opt CongestionOptions) (*CongestionView, error) {
	counts := make(map[wmap.DirKey]*dirAcc)
	view := &CongestionView{Options: opt}
	var topo *wmap.Topology // the topology dirs resolves
	var dirs []*dirAcc      // link i's AB accumulator at 2i, BA at 2i+1

	err := src(func(m *wmap.Map) error {
		view.Snapshots++
		if !topo.Matches(m) {
			topo = m.Topology()
			dirs = dirs[:0]
			for _, k := range topo.Keys() {
				a := counts[k]
				if a == nil {
					a = &dirAcc{}
					counts[k] = a
				}
				dirs = append(dirs, a)
			}
		}
		observeDirections(m.Links, dirs, opt.Threshold, view)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if view.Observations == 0 {
		return nil, fmt.Errorf("analysis: no load observations in the stream")
	}
	view.HotFraction = float64(view.HotReadings) / float64(view.Observations)

	for key, a := range counts {
		share := float64(a.hot) / float64(a.seen)
		if share < opt.PersistFraction {
			continue
		}
		view.Persistent = append(view.Persistent, CongestedLink{
			From: key.From, To: key.To, Label: key.Label, Ordinal: key.Ordinal,
			HotShare: share, PeakLoad: a.peak, Snapshots: a.seen,
		})
	}
	sort.Slice(view.Persistent, func(i, j int) bool {
		a, b := view.Persistent[i], view.Persistent[j]
		if a.HotShare != b.HotShare {
			return a.HotShare > b.HotShare
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Ordinal != b.Ordinal {
			return a.Ordinal < b.Ordinal
		}
		return a.Label < b.Label
	})
	return view, nil
}

// dirAcc accumulates one link direction's readings.
type dirAcc struct {
	hot, seen int
	peak      wmap.Load
}

// observeDirections folds one snapshot's loads into their directions'
// accumulators: dirs[2i] and dirs[2i+1] are links[i]'s AB and BA.
//
//wm:hotpath
func observeDirections(links []wmap.Link, dirs []*dirAcc, threshold wmap.Load, view *CongestionView) {
	for i := range links {
		for d, load := range [2]wmap.Load{links[i].LoadAB, links[i].LoadBA} {
			a := dirs[2*i+d]
			a.seen++
			view.Observations++
			if load >= threshold {
				a.hot++
				view.HotReadings++
			}
			if load > a.peak {
				a.peak = load
			}
		}
	}
}

// WriteCongestion renders the congestion view.
func WriteCongestion(w io.Writer, v *CongestionView) {
	fmt.Fprintf(w, "Congestion (threshold %d%%): %.2f%% of %d readings hot across %d snapshots\n",
		int(v.Options.Threshold), 100*v.HotFraction, v.Observations, v.Snapshots)
	if len(v.Persistent) == 0 {
		fmt.Fprintln(w, "  no persistently congested link (occasional congestion only, as the paper observes)")
		return
	}
	fmt.Fprintf(w, "  %d persistently congested direction(s):\n", len(v.Persistent))
	for i, c := range v.Persistent {
		if i >= 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(v.Persistent)-i)
			break
		}
		fmt.Fprintf(w, "  %s -> %s %s (parallel %d): hot in %.0f%% of snapshots, peak %s\n",
			c.From, c.To, c.Label, c.Ordinal+1, 100*c.HotShare, c.PeakLoad)
	}
}
