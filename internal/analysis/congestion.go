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
// physical direction is which. Every direction's accumulator lives in one
// slab (dirSlab); each topology is indexed once (wmap.Topology), resolving
// its directions to slab slots the following snapshots index by link
// position.
func CongestionStudy(src Stream, opt CongestionOptions) (*CongestionView, error) {
	view := &CongestionView{Options: opt}
	var slab dirSlab
	var topo *wmap.Topology // the topology dirs resolves
	var dirs []int32        // link i's AB slot at 2i, BA at 2i+1

	err := src(func(m *wmap.Map) error {
		view.Snapshots++
		if !topo.Matches(m) {
			topo = m.Topology()
			dirs = slab.resolve(topo, dirs)
		}
		observeDirections(m.Links, dirs, slab.accs, opt.Threshold, view)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if view.Observations == 0 {
		return nil, fmt.Errorf("analysis: no load observations in the stream")
	}
	view.HotFraction = float64(view.HotReadings) / float64(view.Observations)

	for i := range slab.accs {
		a := &slab.accs[i]
		if a.seen == 0 {
			continue // a slot no direction took
		}
		share := float64(a.hot) / float64(a.seen)
		if share < opt.PersistFraction {
			continue
		}
		key := &slab.keys[i]
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

// dirSlab holds one accumulator per direction a stream has shown.
type dirSlab struct {
	keys  []wmap.DirKey // accs[i] accumulates direction keys[i]
	accs  []dirAcc
	index map[wmap.DirKey]int32 // keys inverted, once a second topology appears
}

// resolve sets dirs to the slots of t's directions, by direction index,
// adding a slot for each direction not seen before.
func (s *dirSlab) resolve(t *wmap.Topology, dirs []int32) []int32 {
	keys := t.Keys()
	dirs = dirs[:0]
	if s.accs == nil {
		// The first topology's directions take the first slots, so a
		// stream of one topology builds no index. Two of its directions
		// share a key only as the two directions of a link from a node to
		// itself with equal labels: the second takes the first's slot and
		// leaves its own unseen.
		s.keys = keys[:len(keys):len(keys)]
		s.accs = make([]dirAcc, len(keys))
		for i := range keys {
			d := int32(i)
			if i&1 == 1 && keys[i] == keys[i-1] {
				d--
			}
			dirs = append(dirs, d)
		}
		return dirs
	}
	if s.index == nil {
		// Every slot but an unseen one holds a direction the first
		// topology's snapshot observed.
		s.index = make(map[wmap.DirKey]int32, len(s.keys))
		for i := range s.keys {
			if s.accs[i].seen > 0 {
				s.index[s.keys[i]] = int32(i)
			}
		}
	}
	for _, k := range keys {
		d, ok := s.index[k]
		if !ok {
			d = int32(len(s.keys))
			s.index[k] = d
			s.keys = append(s.keys, k)
			s.accs = append(s.accs, dirAcc{})
		}
		dirs = append(dirs, d)
	}
	return dirs
}

// dirAcc accumulates one link direction's readings.
type dirAcc struct {
	hot, seen int
	peak      wmap.Load
}

// observeDirections folds one snapshot's loads into their directions'
// accumulators: accs[dirs[2i]] and accs[dirs[2i+1]] are links[i]'s AB and
// BA. The view's totals are added once per snapshot.
//
//wm:hotpath
func observeDirections(links []wmap.Link, dirs []int32, accs []dirAcc, threshold wmap.Load, view *CongestionView) {
	hot := 0
	for i := range links {
		l := &links[i]
		hot += accs[dirs[2*i]].observe(l.LoadAB, threshold)
		hot += accs[dirs[2*i+1]].observe(l.LoadBA, threshold)
	}
	view.Observations += 2 * len(links)
	view.HotReadings += hot
}

// observe folds one reading into a and returns 1 if it is hot, else 0.
func (a *dirAcc) observe(load, threshold wmap.Load) int {
	a.seen++
	a.peak = max(a.peak, load)
	if load >= threshold {
		a.hot++
		return 1
	}
	return 0
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
