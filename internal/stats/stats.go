// Package stats provides the descriptive statistics used by the dataset
// analysis: percentiles, empirical distribution functions (CDF and CCDF)
// and histograms. All figures in Section 5 of the paper are built from
// these primitives.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Sample is a mutable collection of float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns a Sample seeded with the given values. The slice is
// copied; the caller keeps ownership of vs.
func NewSample(vs ...float64) *Sample {
	s := &Sample{values: append([]float64(nil), vs...)}
	return s
}

// Add appends observations to the sample.
func (s *Sample) Add(vs ...float64) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Values returns the observations in insertion order until the first sort;
// afterwards in ascending order. The returned slice is owned by the Sample.
func (s *Sample) Values() []float64 { return s.values }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[0], nil
}

// Max returns the largest observation.
func (s *Sample) Max() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[len(s.values)-1], nil
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values)), nil
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() (float64, error) {
	m, err := s.Mean()
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.values))), nil
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks, the same estimator as numpy's default
// and the one used for the paper's whisker plots.
func (s *Sample) Percentile(p float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0, 100]", p)
	}
	s.ensureSorted()
	if len(s.values) == 1 {
		return s.values[0], nil
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo], nil
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac, nil
}

// Median returns the 50th percentile.
func (s *Sample) Median() (float64, error) { return s.Percentile(50) }

// Quartiles bundles the five-number-plus-whiskers summary used by the
// hour-of-day load plot (Figure 5a): median, 25th/75th percentiles, and the
// 1st/99th percentile whiskers.
type Quartiles struct {
	P1, P25, Median, P75, P99 float64
}

// Quartiles computes the Figure 5a summary for the sample.
func (s *Sample) Quartiles() (Quartiles, error) {
	var q Quartiles
	var err error
	if q.P1, err = s.Percentile(1); err != nil {
		return q, err
	}
	q.P25, _ = s.Percentile(25)
	q.Median, _ = s.Percentile(50)
	q.P75, _ = s.Percentile(75)
	q.P99, _ = s.Percentile(99)
	return q, nil
}

// DistPoint is one step of an empirical distribution function.
type DistPoint struct {
	Value    float64 // observation value
	Fraction float64 // cumulative (CDF) or complementary (CCDF) fraction
}

// CDF returns the empirical cumulative distribution function as a sequence
// of (value, P[X <= value]) points over the distinct observed values, in
// ascending value order.
func (s *Sample) CDF() ([]DistPoint, error) {
	if len(s.values) == 0 {
		return nil, ErrEmpty
	}
	s.ensureSorted()
	n := float64(len(s.values))
	var pts []DistPoint
	for i := 0; i < len(s.values); i++ {
		// Collapse runs of equal values into the last index of the run so
		// each distinct value appears once with its full cumulative mass.
		if i+1 < len(s.values) && s.values[i+1] == s.values[i] {
			continue
		}
		pts = append(pts, DistPoint{Value: s.values[i], Fraction: float64(i+1) / n})
	}
	return pts, nil
}

// CCDF returns the complementary CDF as (value, P[X > value]) points over
// distinct observed values in ascending order. This matches the paper's
// Figure 4c, which plots the CCDF of router degree.
func (s *Sample) CCDF() ([]DistPoint, error) {
	cdf, err := s.CDF()
	if err != nil {
		return nil, err
	}
	out := make([]DistPoint, len(cdf))
	for i, p := range cdf {
		out[i] = DistPoint{Value: p.Value, Fraction: 1 - p.Fraction}
	}
	return out, nil
}

// FractionAtMost returns the empirical P[X <= v].
func (s *Sample) FractionAtMost(v float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.values, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(s.values)), nil
}

// FractionGreater returns the empirical P[X > v].
func (s *Sample) FractionGreater(v float64) (float64, error) {
	f, err := s.FractionAtMost(v)
	if err != nil {
		return 0, err
	}
	return 1 - f, nil
}

// HistogramBin is one bin of a fixed-width histogram. The bin covers
// [Lo, Hi) except for the last bin which also includes Hi.
type HistogramBin struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets the sample into n equal-width bins spanning [lo, hi].
// Values outside the range are clamped into the first or last bin, which is
// the right behaviour for load percentages that are guaranteed in [0, 100].
func (s *Sample) Histogram(lo, hi float64, n int) ([]HistogramBin, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs n > 0, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%v, %v]", lo, hi)
	}
	bins := make([]HistogramBin, n)
	w := (hi - lo) / float64(n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*w
		bins[i].Hi = lo + float64(i+1)*w
	}
	for _, v := range s.values {
		idx := int((v - lo) / w)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		bins[idx].Count++
	}
	return bins, nil
}
