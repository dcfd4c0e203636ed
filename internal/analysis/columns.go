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
// one topology. Times[k] is snapshot k; Links[i].AB[k] its load. Topo, when
// set, is the topology of exactly these Links (a producer that interns its
// topologies sets it, as Map.Topo), so a fold need not copy and index them.
type LinkColumns struct {
	Times []time.Time
	Links []LinkCol
	Topo  *wmap.Topology
}

// ColumnStream yields a map's snapshots in chronological chunks. Like
// Stream, the chunk passed to yield may be reused between calls.
type ColumnStream func(yield func(c *LinkColumns) error) error

// columnsOf feeds a snapshot stream to the column folds: each snapshot
// becomes a one-snapshot chunk. The chunk, and the one backing array its
// load columns share, are reused between snapshots, so a stream costs no
// allocation per snapshot once its largest map has been seen. A snapshot
// carrying the previous one's Topo has the previous one's links but for
// their loads, so only the loads are written: every LinkCol.Link stays a
// whole copy of its snapshot's link without the 72-byte copy per link.
func columnsOf(src Stream) ColumnStream {
	return func(yield func(c *LinkColumns) error) error {
		var c LinkColumns
		var loads []wmap.Load
		return src(func(m *wmap.Map) error {
			c.Times = append(c.Times[:0], m.Time)
			if m.Topo != nil && m.Topo == c.Topo && len(m.Links) == len(c.Links) {
				for i := range m.Links {
					l, col := &m.Links[i], &c.Links[i].Link
					loads[2*i], loads[2*i+1] = l.LoadAB, l.LoadBA
					col.LoadAB, col.LoadBA = l.LoadAB, l.LoadBA
				}
				return yield(&c)
			}
			if cap(c.Links) < len(m.Links) {
				c.Links = make([]LinkCol, len(m.Links))
				loads = make([]wmap.Load, 2*len(m.Links))
			}
			c.Links = c.Links[:len(m.Links)]
			c.Topo = m.Topo
			for i := range m.Links {
				l := &m.Links[i]
				loads[2*i], loads[2*i+1] = l.LoadAB, l.LoadBA
				c.Links[i] = LinkCol{Link: *l, AB: loads[2*i : 2*i+1], BA: loads[2*i+1 : 2*i+2]}
			}
			return yield(&c)
		})
	}
}

// ImbalanceCDFColumns is ImbalanceCDF over a column stream: one scan of the
// archive feeds every directed parallel set. A chunk's topology is its Topo
// when set; otherwise it is indexed once (wmap.Topology) and reused for as
// long as the following chunks keep it. Each chunk is then folded set by
// set over its load columns (foldImbalance).
func ImbalanceCDFColumns(src ColumnStream, opt wmap.ImbalanceOptions) (*ImbalanceView, error) {
	var internal, external stats.PercentHist
	var topo *wmap.Topology
	var cur wmap.Map // the chunk's links, when it carries no Topo
	var sc imbalanceScratch
	err := src(func(c *LinkColumns) error {
		if len(c.Times) == 0 {
			return nil
		}
		if c.Topo != nil {
			topo = c.Topo
		} else {
			cur.Links = cur.Links[:0]
			for i := range c.Links {
				cur.Links = append(cur.Links, c.Links[i].Link)
			}
			if !topo.Matches(&cur) {
				topo = cur.Topology()
			}
		}
		foldImbalance(topo, c, opt, &sc, &internal, &external)
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

// imbalanceScratch is foldImbalance's per-snapshot state for one set,
// reused across sets and chunks: the count of kept loads, their extremes
// (widened to int, so min and max compile without branches), and the
// spreads to add.
type imbalanceScratch struct {
	n, mn, mx []int
	spreads   []uint8
}

// foldImbalance adds every snapshot of c, whose topology t indexes, to the
// histograms: for each directed set and snapshot, the spread of its loads
// that survive opt's filters, as wmap.Imbalances computes it. It walks each
// set's direction columns in turn, then adds the set's spreads in one go;
// a histogram's counts do not depend on the order of its adds. A set with
// a load outside [0, 100] adds 255 instead, which the histogram rejects,
// since its spread alone could still look valid.
//
//wm:hotpath
func foldImbalance(t *wmap.Topology, c *LinkColumns, opt wmap.ImbalanceOptions, sc *imbalanceScratch, internal, external *stats.PercentHist) {
	K := len(c.Times)
	if cap(sc.n) < K {
		sc.n, sc.mn, sc.mx = make([]int, K), make([]int, K), make([]int, K)
		sc.spreads = make([]uint8, 0, K)
	}
	n, mn, mx := sc.n[:K], sc.mn[:K], sc.mx[:K]
	sets := t.Sets()
	for i := range sets {
		s := &sets[i]
		// A set keeps at most one load per direction.
		if len(s.Dirs) == 0 || len(s.Dirs) < opt.MinLinks {
			continue
		}
		clear(n)
		for k := range mn {
			mn[k], mx[k] = 255, 0
		}
		for _, di := range s.Dirs {
			col := c.Links[di>>1].AB[:K]
			if di&1 != 0 {
				col = c.Links[di>>1].BA[:K]
			}
			for k, l := range col {
				if (opt.IgnoreZero && l == 0) || (opt.IgnoreOne && l == 1) {
					continue
				}
				n[k]++
				mn[k] = min(mn[k], int(l))
				mx[k] = max(mx[k], int(l))
			}
		}
		spreads := sc.spreads[:0]
		for k := range n {
			if n[k] == 0 || n[k] < opt.MinLinks {
				continue
			}
			v := uint8(mx[k] - mn[k])
			if mx[k] > 100 { // mn <= mx, so the set holds an invalid load
				v = 255
			}
			spreads = append(spreads, v)
		}
		if s.Internal {
			stats.AddBytes(internal, spreads)
		} else {
			stats.AddBytes(external, spreads)
		}
	}
}

// WeeklyLoadsColumns is the week-cycle fold: every directed load, grouped
// by its snapshot's weekday, reduced to per-day medians and the
// weekday/weekend means.
func WeeklyLoadsColumns(src ColumnStream) (*WeeklyView, error) {
	var byDay [7]stats.PercentHist
	err := src(func(c *LinkColumns) error {
		// A run of snapshots on one weekday adds each column's run at once.
		for lo := 0; lo < len(c.Times); {
			d := c.Times[lo].Weekday()
			hi := lo + 1
			for hi < len(c.Times) && c.Times[hi].Weekday() == d {
				hi++
			}
			addRuns(&byDay[d], c.Links, lo, hi)
			lo = hi
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

// addRuns adds snapshots [lo, hi) of every link's two load columns to g.
//
//wm:hotpath
func addRuns(g *stats.PercentHist, links []LinkCol, lo, hi int) {
	for i := range links {
		stats.AddBytes(g, links[i].AB[lo:hi])
		stats.AddBytes(g, links[i].BA[lo:hi])
	}
}
