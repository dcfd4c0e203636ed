package analysis

import (
	"fmt"
	"io"
	"time"

	"ovhweather/internal/stats"
)

// WeeklyView extends the Figure 5a day-cycle analysis to the week: load
// statistics split by weekday vs weekend, plus the per-day-of-week medians.
// Backbone traffic follows the population's rhythm, so weekends run lighter
// — the same seasonality reasoning behind the paper's hour-of-day figure,
// one level up.
type WeeklyView struct {
	WeekdayMean, WeekendMean float64
	// ByDay maps time.Weekday to the median load of snapshots on that day.
	ByDay   [7]float64
	Samples [7]int
}

// WeeklyLoads consumes a stream and aggregates loads by day of week.
func WeeklyLoads(src Stream) (*WeeklyView, error) {
	return WeeklyLoadsColumns(columnsOf(src))
}

// HourAgg is one pre-aggregated bucket of link-load samples, the shape the
// tsdb rollup tiers hand long-range folds (tsdb.RollupBucket maps onto it;
// analysis deliberately does not import tsdb).
type HourAgg struct {
	Start    time.Time
	Count    int64   // load samples aggregated into the bucket
	Sum      float64 // sum of those samples
	Min, Max float64 // extreme single samples in the bucket
}

// WeeklyMeansView is the weekly seasonality fold computed from
// pre-aggregated buckets instead of raw snapshots. Means compose exactly
// across buckets (weighted by sample count) where medians would not, so
// this is the rollup-backed counterpart of WeeklyLoads: per-day mean loads,
// the weekday/weekend split, and the range's extreme observations.
type WeeklyMeansView struct {
	WeekdayMean, WeekendMean float64
	ByDay                    [7]float64 // mean load per time.Weekday
	Samples                  [7]int64
	Min, Max                 float64 // extreme single loads across the whole range
}

// WeeklyMeans folds hourly (or coarser) aggregates into the weekly view.
// Buckets spanning more than a day would smear across weekdays, so callers
// feed the 1h tier. It fails with stats.ErrEmpty on no samples.
func WeeklyMeans(aggs []HourAgg) (*WeeklyMeansView, error) {
	var sum [7]float64
	var n [7]int64
	v := &WeeklyMeansView{}
	first := true
	for _, a := range aggs {
		if a.Count <= 0 {
			continue
		}
		d := int(a.Start.Weekday())
		sum[d] += a.Sum
		n[d] += a.Count
		if first || a.Min < v.Min {
			v.Min = a.Min
		}
		if first || a.Max > v.Max {
			v.Max = a.Max
		}
		first = false
	}
	var wdSum, weSum float64
	var wdN, weN int64
	for d := 0; d < 7; d++ {
		v.Samples[d] = n[d]
		if n[d] == 0 {
			continue
		}
		v.ByDay[d] = sum[d] / float64(n[d])
		switch time.Weekday(d) {
		case time.Saturday, time.Sunday:
			weSum += sum[d]
			weN += n[d]
		default:
			wdSum += sum[d]
			wdN += n[d]
		}
	}
	if wdN == 0 && weN == 0 {
		return nil, stats.ErrEmpty
	}
	if wdN > 0 {
		v.WeekdayMean = wdSum / float64(wdN)
	}
	if weN > 0 {
		v.WeekendMean = weSum / float64(weN)
	}
	return v, nil
}

// WriteWeeklyMeans renders the rollup-backed weekly view.
func WriteWeeklyMeans(w io.Writer, v *WeeklyMeansView) {
	fmt.Fprintf(w, "Weekly pattern (rollup tier) — weekday mean %.1f%%, weekend mean %.1f%%, loads span [%.0f%%, %.0f%%]\n",
		v.WeekdayMean, v.WeekendMean, v.Min, v.Max)
	for d := time.Sunday; d <= time.Saturday; d++ {
		if v.Samples[d] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s mean %.1f%% (%d samples)\n", d, v.ByDay[d], v.Samples[d])
	}
}

// WriteWeekly renders the weekly view.
func WriteWeekly(w io.Writer, v *WeeklyView) {
	fmt.Fprintf(w, "Weekly pattern — weekday mean %.1f%%, weekend mean %.1f%%\n",
		v.WeekdayMean, v.WeekendMean)
	for d := time.Sunday; d <= time.Saturday; d++ {
		if v.Samples[d] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s median %.1f%% (%d obs)\n", d, v.ByDay[d], v.Samples[d])
	}
}
