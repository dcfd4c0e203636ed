package analysis

import (
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
	var hours [24]*stats.Sample // nil until the hour's first load
	err := src(func(m *wmap.Map) error {
		h := m.Time.Hour()
		if hours[h] == nil && len(m.Links) > 0 {
			hours[h] = stats.NewSample()
		}
		for _, l := range m.Links {
			hours[h].Add(float64(l.LoadAB), float64(l.LoadBA))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &HourlyLoadView{}
	for h, g := range hours {
		if g == nil {
			continue
		}
		view.Hours[h], _ = g.Quartiles() // non-empty
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
// every directed load observation.
func LoadCDF(src Stream) (*LoadDistView, error) {
	all := stats.NewSample()
	internal := stats.NewSample()
	external := stats.NewSample()
	err := src(func(m *wmap.Map) error {
		for _, l := range m.Links {
			a, b := float64(l.LoadAB), float64(l.LoadBA)
			all.Add(a, b)
			if l.Internal() {
				internal.Add(a, b)
			} else {
				external.Add(a, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &LoadDistView{Samples: all.Len()}
	var cdfErr error
	if view.All, cdfErr = all.CDF(); cdfErr != nil {
		return nil, cdfErr
	}
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
