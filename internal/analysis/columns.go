package analysis

import (
	"time"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// The column folds are the grid-scan counterparts of the snapshot folds:
// instead of receiving one *wmap.Map per snapshot, they receive one
// LinkColumns chunk per storage block — every link's directed load columns
// decoded once and laid out side by side. The tsdb grid scan produces this
// shape natively (Reader.GridColumns), so multi-link analyses fold the
// archive in a single ordered pass rather than re-streaming it per lens.
// analysis deliberately does not import tsdb; callers adapt the chunk type.

// LinkCol is one link's slice of a column chunk: the topology row (loads
// unused) plus the two directed load columns, index-aligned with the
// chunk's Times.
type LinkCol struct {
	Link   wmap.Link
	AB, BA []wmap.Load
}

// LinkColumns is one columnar chunk: a run of consecutive snapshots sharing
// one topology. Times[k] is snapshot k; Links[i].AB[k] its load.
type LinkColumns struct {
	Times []time.Time
	Links []LinkCol
}

// ColumnStream yields a map's snapshots in chronological chunks. Like
// Stream, the chunk passed to yield may be reused between calls.
type ColumnStream func(yield func(c *LinkColumns) error) error

// snapshots iterates the chunk row-wise: for each snapshot time it fills
// scratch.Links with that instant's loads and hands the map to visit —
// recovering the exact per-snapshot view the Stream folds consume, so
// WeeklyLoadsColumns inherits WeeklyLoads' semantics (and results) verbatim.
func (c *LinkColumns) snapshots(scratch *wmap.Map, visit func(m *wmap.Map) error) error {
	if cap(scratch.Links) < len(c.Links) {
		scratch.Links = make([]wmap.Link, len(c.Links))
	}
	scratch.Links = scratch.Links[:len(c.Links)]
	for i := range c.Links {
		scratch.Links[i] = c.Links[i].Link
	}
	for k, t := range c.Times {
		scratch.Time = t
		for i := range c.Links {
			scratch.Links[i].LoadAB = c.Links[i].AB[k]
			scratch.Links[i].LoadBA = c.Links[i].BA[k]
		}
		if err := visit(scratch); err != nil {
			return err
		}
	}
	return nil
}

// ImbalanceCDFColumns is ImbalanceCDF over a column stream: one scan of the
// archive feeds every directed parallel set. A chunk's topology is grouped
// into directed sets once (setIndex) and reused for as long as the following
// chunks keep it, so the per-snapshot work is only filter and min/max over
// the load columns, in the order wmap.Imbalances visits them.
func ImbalanceCDFColumns(src ColumnStream, opt wmap.ImbalanceOptions) (*ImbalanceView, error) {
	internal := stats.NewSample()
	external := stats.NewSample()
	var lastParallelism float64
	var ix setIndex
	var topo []wmap.Link
	err := src(func(c *LinkColumns) error {
		if len(c.Times) == 0 {
			return nil
		}
		topo = topo[:0]
		for i := range c.Links {
			topo = append(topo, c.Links[i].Link)
		}
		if !sameTopology(topo, ix.links) {
			ix.build(topo)
		}
		for k := range c.Times {
			ix.fold(c, k, opt, internal, external)
		}
		lastParallelism = ix.parallelism
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &ImbalanceView{
		IntSets:         internal.Len(),
		ExtSets:         external.Len(),
		MeanParallelism: lastParallelism,
	}
	if internal.Len() > 0 {
		view.Internal, _ = internal.CDF()
		view.IntWithin1, _ = internal.FractionAtMost(1)
	}
	if external.Len() > 0 {
		view.External, _ = external.CDF()
		view.ExtWithin2, _ = external.FractionAtMost(2)
	}
	return view, nil
}

// setIndex is one topology's directed parallel sets, laid out for the
// column fold: sets in wmap.Imbalances order (ParallelGroups order, A→B
// before B→A), each naming the load columns of its links. The zero value
// indexes the empty topology.
type setIndex struct {
	links       []wmap.Link // the topology indexed (identity fields are what count)
	sets        []dirSet
	members     []colRef // every set's columns, back to back
	parallelism float64  // wmap.Map.MeanParallelism of the topology
}

// dirSet is one directed set: members[lo:hi] are its links' columns.
type dirSet struct {
	internal bool
	lo, hi   int
}

// colRef is one link of a directed set: its column, and whether the set
// reads the link's BA load rather than its AB load.
type colRef struct {
	col int
	ba  bool
}

// build indexes links. The grouping itself is wmap's: ParallelGroups runs
// over a copy of the topology whose LoadAB carries each link's column
// index, so the sets come out in exactly the order Imbalances walks them.
func (ix *setIndex) build(links []wmap.Link) {
	ix.links = append(ix.links[:0], links...)
	tagged := &wmap.Map{Links: make([]wmap.Link, len(links))}
	for i, l := range links {
		l.LoadAB = wmap.Load(i)
		tagged.Links[i] = l
	}
	ix.sets, ix.members = ix.sets[:0], ix.members[:0]
	for _, g := range tagged.ParallelGroups() {
		internal := wmap.KindOfName(g.A) == wmap.Router && wmap.KindOfName(g.B) == wmap.Router
		for _, from := range [2]string{g.A, g.B} {
			lo := len(ix.members)
			for _, l := range g.Links {
				// DirectedLoads' rule: AB when from is the link's A, else
				// BA when it is its B.
				switch from {
				case l.A:
					ix.members = append(ix.members, colRef{col: int(l.LoadAB)})
				case l.B:
					ix.members = append(ix.members, colRef{col: int(l.LoadAB), ba: true})
				}
			}
			ix.sets = append(ix.sets, dirSet{internal: internal, lo: lo, hi: len(ix.members)})
		}
	}
	ix.parallelism = tagged.MeanParallelism()
}

// fold adds snapshot k of c to the samples: for each directed set, the
// spread of its loads that survive opt's filters, as wmap.Imbalances
// computes it.
//
//wm:hotpath
func (ix *setIndex) fold(c *LinkColumns, k int, opt wmap.ImbalanceOptions, internal, external *stats.Sample) {
	for _, s := range ix.sets {
		var n int
		var mn, mx wmap.Load
		for _, r := range ix.members[s.lo:s.hi] {
			l := c.Links[r.col].AB[k]
			if r.ba {
				l = c.Links[r.col].BA[k]
			}
			if (opt.IgnoreZero && l == 0) || (opt.IgnoreOne && l == 1) {
				continue
			}
			if n == 0 || l < mn {
				mn = l
			}
			if n == 0 || l > mx {
				mx = l
			}
			n++
		}
		if n == 0 || n < opt.MinLinks {
			continue
		}
		if s.internal {
			internal.Add(float64(mx - mn))
		} else {
			external.Add(float64(mx - mn))
		}
	}
}

// sameTopology reports whether a and b list the same links in the same
// order, by the identity fields (A, B, LabelA, LabelB) — all that the
// parallel grouping and events.EachDirection read. Snapshots decoded from
// one stored topology share its strings, so an unchanged topology compares
// at pointer speed.
func sameTopology(a, b []wmap.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.A != y.A || x.B != y.B || x.LabelA != y.LabelA || x.LabelB != y.LabelB {
			return false
		}
	}
	return true
}

// WeeklyLoadsColumns is WeeklyLoads over a column stream: same per-snapshot
// accumulation order (snapshot-major, link-minor, AB before BA), same view.
func WeeklyLoadsColumns(src ColumnStream) (*WeeklyView, error) {
	byDay := make([]*stats.Sample, 7)
	for i := range byDay {
		byDay[i] = stats.NewSample()
	}
	var scratch wmap.Map
	err := src(func(c *LinkColumns) error {
		return c.snapshots(&scratch, func(m *wmap.Map) error {
			d := int(m.Time.Weekday())
			for _, l := range m.Links {
				byDay[d].Add(float64(l.LoadAB), float64(l.LoadBA))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return weeklyFromByDay(byDay)
}
