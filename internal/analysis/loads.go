package analysis

import (
	"fmt"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// HourlyLoadView is the Figure 5a result: per hour of day, the summary of
// the link-load distribution (median, quartiles, 1st/99th percentile
// whiskers).
type HourlyLoadView struct {
	Hours   [24]stats.Quartiles
	Samples [24]int
}

// HourlyLoads consumes a stream and groups every link load (both
// directions, all links) by the snapshot's hour of day.
func HourlyLoads(src Stream) (*HourlyLoadView, error) {
	var hours [24]stats.PercentHist
	err := src(func(m *wmap.Map) error {
		g := &hours[m.Time.Hour()]
		for i := range m.Links {
			g.AddPair(int(m.Links[i].LoadAB), int(m.Links[i].LoadBA))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &HourlyLoadView{}
	for h := range hours {
		g := &hours[h]
		if g.Len() == 0 {
			continue
		}
		if view.Hours[h], err = g.Quartiles(); err != nil {
			return nil, fmt.Errorf("analysis: hourly loads at %02dh: %w", h, err)
		}
		view.Samples[h] = g.Len()
	}
	return view, nil
}

// PeakHour returns the hour with the highest median load.
func (v *HourlyLoadView) PeakHour() int {
	best, bestV := 0, -1.0
	for h, q := range v.Hours {
		if v.Samples[h] > 0 && q.Median > bestV {
			best, bestV = h, q.Median
		}
	}
	return best
}

// TroughHour returns the hour with the lowest median load.
func (v *HourlyLoadView) TroughHour() int {
	best, bestV := 0, 1e18
	for h, q := range v.Hours {
		if v.Samples[h] > 0 && q.Median < bestV {
			best, bestV = h, q.Median
		}
	}
	return best
}

// LoadDistView is the Figure 5b result: the load CDFs of all, internal and
// external links with the paper's headline statistics.
type LoadDistView struct {
	All, Internal, External []stats.DistPoint
	P75All                  float64
	FracOver60              float64
	MeanInternal            float64
	MeanExternal            float64
	Samples                 int
}

// LoadCDF consumes a stream and computes the Figure 5b distributions over
// every directed load observation. Each load goes to its link class; all
// links is their merge.
func LoadCDF(src Stream) (*LoadDistView, error) {
	var internal, external stats.PercentHist
	err := src(func(m *wmap.Map) error {
		for i := range m.Links {
			l := &m.Links[i]
			side := &external
			if l.Internal() {
				side = &internal
			}
			side.AddPair(int(l.LoadAB), int(l.LoadBA))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all stats.PercentHist
	all.Merge(&internal)
	all.Merge(&external)
	view := &LoadDistView{Samples: all.Len()}
	if view.All, err = all.CDF(); err != nil {
		return nil, fmt.Errorf("analysis: load CDF: %w", err)
	}
	// all holds every observation, so no query below can fail.
	if internal.Len() > 0 {
		view.Internal, _ = internal.CDF()
		view.MeanInternal, _ = internal.Mean()
	}
	if external.Len() > 0 {
		view.External, _ = external.CDF()
		view.MeanExternal, _ = external.Mean()
	}
	view.P75All, _ = all.Percentile(75)
	view.FracOver60, _ = all.FractionGreater(60)
	return view, nil
}

// ImbalanceView is the Figure 5c result: the CDFs of parallel-link load
// imbalance for internal and external directed sets, plus the paper's
// headline fractions.
type ImbalanceView struct {
	Internal, External []stats.DistPoint
	IntSets, ExtSets   int
	IntWithin1         float64 // fraction of internal imbalances <= 1 %
	ExtWithin2         float64 // fraction of external imbalances <= 2 %
	MeanParallelism    float64 // average parallel links per group (last map)
}

// ImbalanceCDF consumes a stream and computes the Figure 5c view using the
// given filters (use wmap.PaperImbalanceOptions for the paper's).
func ImbalanceCDF(src Stream, opt wmap.ImbalanceOptions) (*ImbalanceView, error) {
	return ImbalanceCDFColumns(columnsOf(src), opt)
}
