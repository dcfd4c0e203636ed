// Package analysis computes the paper's evaluation results — every table
// and figure of Sections 4 and 5 — from streams of weather-map snapshots.
// It is source-agnostic: snapshots may come from the on-disk dataset, from
// the collector, or straight from the simulator.
package analysis

import (
	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// Stream produces snapshots in chronological order, invoking yield for
// each; it stops early when yield errors. The map passed to yield may be a
// view that is valid only until the next call (tsdb's Cursor.MapView
// overwrites one map for every snapshot): a fold must neither keep it nor
// mutate it, and copies what it needs past the call.
type Stream func(yield func(*wmap.Map) error) error

// SliceStream adapts an in-memory snapshot list to a Stream.
func SliceStream(maps []*wmap.Map) Stream {
	return func(yield func(*wmap.Map) error) error {
		for _, m := range maps {
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}
}

// InfraSeries is the Figure 4a/4b view: infrastructure counts over time.
type InfraSeries struct {
	Routers  *stats.TimeSeries
	Internal *stats.TimeSeries
	External *stats.TimeSeries
}

// Infrastructure consumes a stream and produces the evolution series of
// router, internal-link, and external-link counts.
func Infrastructure(src Stream) (*InfraSeries, error) {
	out := &InfraSeries{
		Routers:  stats.NewTimeSeries(),
		Internal: stats.NewTimeSeries(),
		External: stats.NewTimeSeries(),
	}
	err := src(func(m *wmap.Map) error {
		out.Routers.Append(m.Time, float64(len(m.Routers())))
		out.Internal.Append(m.Time, float64(len(m.InternalLinks())))
		out.External.Append(m.Time, float64(len(m.ExternalLinks())))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RouterEvents returns the step changes in the router count with magnitude
// at least minAbs — the additions, removals and maintenance dips the paper
// reads off Figure 4a.
func (s *InfraSeries) RouterEvents(minAbs float64) []stats.ChangeEvent {
	return s.Routers.Changes(minAbs)
}

// InternalSteps returns the stepwise internal link increases of Figure 4b.
func (s *InfraSeries) InternalSteps(minAbs float64) []stats.ChangeEvent {
	return s.Internal.Changes(minAbs)
}

// DegreeView is the Figure 4c result: the CCDF of OVH router degree with
// the paper's two headline fractions.
type DegreeView struct {
	CCDF        []stats.DistPoint
	Routers     int
	FracDegree1 float64 // fraction of routers with a single link
	FracOver20  float64 // fraction with more than 20 links
	MaxDegree   int
}

// DegreeCCDF computes the Figure 4c view from one snapshot, counting all
// parallel links.
func DegreeCCDF(m *wmap.Map) (DegreeView, error) {
	degs := m.RouterDegrees()
	view := DegreeView{Routers: len(degs)}
	if len(degs) == 0 {
		return view, stats.ErrEmpty
	}
	sample := stats.NewSample()
	var d1, d20 int
	for _, d := range degs {
		sample.Add(float64(d))
		if d == 1 {
			d1++
		}
		if d > 20 {
			d20++
		}
		if d > view.MaxDegree {
			view.MaxDegree = d
		}
	}
	ccdf, err := sample.CCDF()
	if err != nil {
		return view, err
	}
	view.CCDF = ccdf
	view.FracDegree1 = float64(d1) / float64(len(degs))
	view.FracOver20 = float64(d20) / float64(len(degs))
	return view, nil
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Title    string
	Routers  int
	Internal int
	External int
}

// Table1 computes the per-map rows and the dedup total from simultaneous
// snapshots of all maps.
func Table1(maps []*wmap.Map) (rows []Table1Row, total Table1Row) {
	sumRows, sumTotal := wmap.SummarizeAll(maps)
	for _, r := range sumRows {
		rows = append(rows, Table1Row{
			Title:    r.MapID.Title(),
			Routers:  r.Routers,
			Internal: r.Internal,
			External: r.External,
		})
	}
	total = Table1Row{
		Title:    "Total",
		Routers:  sumTotal.Routers,
		Internal: sumTotal.Internal,
		External: sumTotal.External,
	}
	return rows, total
}
