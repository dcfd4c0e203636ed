package stats

import (
	"sort"
	"time"
)

// TimePoint is one observation of a quantity at an instant, used for the
// infrastructure evolution series (Figure 4a/4b) and the per-link load
// series of the upgrade study (Figure 6).
type TimePoint struct {
	T time.Time
	V float64
}

// TimeSeries is an append-mostly sequence of timestamped observations.
// Points may be appended out of order; accessors sort lazily.
type TimeSeries struct {
	points []TimePoint
	sorted bool
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Append records v at time t.
func (ts *TimeSeries) Append(t time.Time, v float64) {
	ts.points = append(ts.points, TimePoint{T: t, V: v})
	ts.sorted = false
}

func (ts *TimeSeries) ensureSorted() {
	if ts.sorted {
		return
	}
	// Producers overwhelmingly append in time order; a linear check is far
	// cheaper than re-sorting sorted data.
	if !sort.SliceIsSorted(ts.points, func(i, j int) bool { return ts.points[i].T.Before(ts.points[j].T) }) {
		sort.Slice(ts.points, func(i, j int) bool { return ts.points[i].T.Before(ts.points[j].T) })
	}
	ts.sorted = true
}

// Points returns the points in chronological order. The slice is owned by
// the series.
func (ts *TimeSeries) Points() []TimePoint {
	ts.ensureSorted()
	return ts.points
}

// First returns the earliest point; ok is false for an empty series.
func (ts *TimeSeries) First() (TimePoint, bool) {
	if len(ts.points) == 0 {
		return TimePoint{}, false
	}
	ts.ensureSorted()
	return ts.points[0], true
}

// Last returns the latest point; ok is false for an empty series.
func (ts *TimeSeries) Last() (TimePoint, bool) {
	if len(ts.points) == 0 {
		return TimePoint{}, false
	}
	ts.ensureSorted()
	return ts.points[len(ts.points)-1], true
}

// At returns the value at the latest point not after t; ok is false when t
// precedes the whole series.
func (ts *TimeSeries) At(t time.Time) (float64, bool) {
	ts.ensureSorted()
	idx := sort.Search(len(ts.points), func(i int) bool { return ts.points[i].T.After(t) })
	if idx == 0 {
		return 0, false
	}
	return ts.points[idx-1].V, true
}

// Deltas returns the step changes between consecutive points: one TimePoint
// per adjacent pair, stamped at the later time with V = later - earlier.
// Change-event detection (router additions/removals, link activations) runs
// on these deltas.
func (ts *TimeSeries) Deltas() []TimePoint {
	ts.ensureSorted()
	if len(ts.points) < 2 {
		return nil
	}
	out := make([]TimePoint, 0, len(ts.points)-1)
	for i := 1; i < len(ts.points); i++ {
		out = append(out, TimePoint{T: ts.points[i].T, V: ts.points[i].V - ts.points[i-1].V})
	}
	return out
}

// ChangeEvent is a detected step change in a time series.
type ChangeEvent struct {
	T     time.Time
	Delta float64
}

// Changes returns the deltas whose magnitude is at least minAbs, in
// chronological order.
func (ts *TimeSeries) Changes(minAbs float64) []ChangeEvent {
	var out []ChangeEvent
	for _, d := range ts.Deltas() {
		if d.V >= minAbs || d.V <= -minAbs {
			out = append(out, ChangeEvent{T: d.T, Delta: d.V})
		}
	}
	return out
}

// Resample buckets the series into fixed windows of width step starting at
// the first point's time, averaging the values inside each window. Empty
// windows are skipped. Resampling tames the 5-minute resolution down to the
// daily granularity the evolution figures are drawn at.
func (ts *TimeSeries) Resample(step time.Duration) *TimeSeries {
	ts.ensureSorted()
	out := NewTimeSeries()
	if len(ts.points) == 0 || step <= 0 {
		return out
	}
	start := ts.points[0].T
	var sum float64
	var n int
	cur := start
	flush := func() {
		if n > 0 {
			out.Append(cur, sum/float64(n))
		}
		sum, n = 0, 0
	}
	for _, p := range ts.points {
		for p.T.Sub(cur) >= step {
			flush()
			cur = cur.Add(step)
		}
		sum += p.V
		n++
	}
	flush()
	return out
}

// Gap is a pause between consecutive timestamps, used by the collection
// time-frame analysis (Figures 2 and 3).
type Gap struct {
	From, To time.Time
}

// Intervals returns the durations between consecutive timestamps in
// chronological order. This is the raw material of Figure 3.
func Intervals(times []time.Time) []time.Duration {
	ts := append([]time.Time(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	if len(ts) < 2 {
		return nil
	}
	out := make([]time.Duration, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i].Sub(ts[i-1]))
	}
	return out
}

// GapsLargerThan returns the pauses between consecutive timestamps that
// exceed threshold, in chronological order. Figure 2's segment view is the
// complement of these gaps.
func GapsLargerThan(times []time.Time, threshold time.Duration) []Gap {
	ts := append([]time.Time(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	var out []Gap
	for i := 1; i < len(ts); i++ {
		if ts[i].Sub(ts[i-1]) > threshold {
			out = append(out, Gap{From: ts[i-1], To: ts[i]})
		}
	}
	return out
}

// Segment is a maximal run of timestamps in which every consecutive pair is
// no farther apart than the segmentation threshold.
type Segment struct {
	From, To time.Time
	Count    int
}

// Segments splits the timestamps into maximal contiguous runs where
// consecutive snapshots are at most maxGap apart. Figure 2 draws one bar per
// segment and map.
func Segments(times []time.Time, maxGap time.Duration) []Segment {
	ts := append([]time.Time(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	if len(ts) == 0 {
		return nil
	}
	var out []Segment
	cur := Segment{From: ts[0], To: ts[0], Count: 1}
	for i := 1; i < len(ts); i++ {
		if ts[i].Sub(ts[i-1]) > maxGap {
			out = append(out, cur)
			cur = Segment{From: ts[i], To: ts[i], Count: 1}
			continue
		}
		cur.To = ts[i]
		cur.Count++
	}
	return append(out, cur)
}
