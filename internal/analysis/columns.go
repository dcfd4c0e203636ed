package analysis

import (
	"fmt"
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

// columnsOf feeds a snapshot stream to the column folds: each snapshot
// becomes a one-snapshot chunk. The chunk, and the one backing array its
// load columns share, are reused between snapshots, so a stream costs no
// allocation per snapshot once its largest map has been seen.
func columnsOf(src Stream) ColumnStream {
	return func(yield func(c *LinkColumns) error) error {
		var c LinkColumns
		var loads []wmap.Load
		return src(func(m *wmap.Map) error {
			if cap(c.Links) < len(m.Links) {
				c.Links = make([]LinkCol, len(m.Links))
				loads = make([]wmap.Load, 2*len(m.Links))
			}
			c.Links = c.Links[:len(m.Links)]
			c.Times = append(c.Times[:0], m.Time)
			for i, l := range m.Links {
				loads[2*i], loads[2*i+1] = l.LoadAB, l.LoadBA
				c.Links[i] = LinkCol{Link: l, AB: loads[2*i : 2*i+1], BA: loads[2*i+1 : 2*i+2]}
			}
			return yield(&c)
		})
	}
}

// ImbalanceCDFColumns is ImbalanceCDF over a column stream: one scan of the
// archive feeds every directed parallel set. A chunk's topology is indexed
// once (wmap.Topology) and reused for as long as the following chunks keep
// it, so the per-snapshot work is only filter and min/max over the load
// columns, in the order wmap.Imbalances visits them.
func ImbalanceCDFColumns(src ColumnStream, opt wmap.ImbalanceOptions) (*ImbalanceView, error) {
	var internal, external stats.PercentHist
	var topo *wmap.Topology
	var cur wmap.Map // the chunk's links
	err := src(func(c *LinkColumns) error {
		if len(c.Times) == 0 {
			return nil
		}
		cur.Links = cur.Links[:0]
		for i := range c.Links {
			cur.Links = append(cur.Links, c.Links[i].Link)
		}
		if !topo.Matches(&cur) {
			topo = cur.Topology()
		}
		for k := range c.Times {
			foldImbalance(topo, c, k, opt, &internal, &external)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &ImbalanceView{
		IntSets: internal.Len(),
		ExtSets: external.Len(),
	}
	if topo != nil {
		view.MeanParallelism = topo.MeanParallelism()
	}
	if internal.Len() > 0 {
		if view.Internal, err = internal.CDF(); err != nil {
			return nil, fmt.Errorf("analysis: internal imbalance CDF: %w", err)
		}
		view.IntWithin1, _ = internal.FractionAtMost(1)
	}
	if external.Len() > 0 {
		if view.External, err = external.CDF(); err != nil {
			return nil, fmt.Errorf("analysis: external imbalance CDF: %w", err)
		}
		view.ExtWithin2, _ = external.FractionAtMost(2)
	}
	return view, nil
}

// foldImbalance adds snapshot k of c, whose topology t indexes, to the
// histograms: for each directed set, the spread of its loads that survive
// opt's filters, as wmap.Imbalances computes it. A set with a load outside
// [0, 100] adds -1 instead, which the histogram rejects, since its spread
// alone could still look valid.
//
//wm:hotpath
func foldImbalance(t *wmap.Topology, c *LinkColumns, k int, opt wmap.ImbalanceOptions, internal, external *stats.PercentHist) {
	sets := t.Sets()
	for i := range sets {
		s := &sets[i]
		var n int
		var mn, mx wmap.Load
		for _, di := range s.Dirs {
			l := c.Links[di>>1].AB[k]
			if di&1 != 0 {
				l = c.Links[di>>1].BA[k]
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
		v := int(mx) - int(mn)
		if !mn.Valid() || !mx.Valid() {
			v = -1
		}
		if s.Internal {
			internal.Add(v)
		} else {
			external.Add(v)
		}
	}
}

// WeeklyLoadsColumns is the week-cycle fold: every directed load, grouped
// by its snapshot's weekday in snapshot-major, link-minor order (AB before
// BA), reduced to per-day medians and the weekday/weekend means.
func WeeklyLoadsColumns(src ColumnStream) (*WeeklyView, error) {
	var byDay [7]stats.PercentHist
	err := src(func(c *LinkColumns) error {
		for k, t := range c.Times {
			g := &byDay[t.Weekday()]
			for i := range c.Links {
				g.Add(int(c.Links[i].AB[k]))
				g.Add(int(c.Links[i].BA[k]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Integer sums are exact, so the weekday and weekend means are what a
	// pooled sample would give whatever order its loads were summed in.
	view := &WeeklyView{}
	var sum, n [2]int64 // weekday, weekend
	for d := range byDay {
		g := &byDay[d]
		view.Samples[d] = g.Len()
		if g.Len() == 0 {
			continue
		}
		if view.ByDay[d], err = g.Median(); err != nil {
			return nil, fmt.Errorf("analysis: weekly loads on %s: %w", time.Weekday(d), err)
		}
		w := 0
		if d == int(time.Saturday) || d == int(time.Sunday) {
			w = 1
		}
		s, _ := g.Sum() // Median has checked g
		sum[w] += s
		n[w] += int64(g.Len())
	}
	if n[0] == 0 && n[1] == 0 {
		return nil, stats.ErrEmpty
	}
	if n[0] > 0 {
		view.WeekdayMean = float64(sum[0]) / float64(n[0])
	}
	if n[1] > 0 {
		view.WeekendMean = float64(sum[1]) / float64(n[1])
	}
	return view, nil
}
