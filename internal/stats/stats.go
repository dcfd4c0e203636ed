// Package stats provides the descriptive statistics used by the dataset
// analysis: percentiles and empirical distribution functions (CDF and CCDF)
// over a sorted Sample, and the same queries over PercentHist, an exact
// count histogram of integer percentages that answers them bit for bit in
// constant memory. All figures in Section 5 of the paper are built from
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

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// percentile is the closest-rank interpolation behind
// PercentHist.Percentile, the same estimator as numpy's default and the
// one used for the paper's whisker plots: the p-th percentile (p in
// [0, 100]) of n ordered observations, where at(k) is the k-th smallest,
// counting from 0. The interpolated value is clamped to the two order
// statistics it lies between: between equal ones, rounding in the blend
// could otherwise land just outside them, below the sample's minimum.
func percentile(n int, p float64, at func(k int) float64) (float64, error) {
	if n == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, fmt.Errorf("stats: percentile %v out of range [0, 100]", p)
	}
	if n == 1 {
		return at(0), nil
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo), nil
	}
	frac := rank - float64(lo)
	a, b := at(lo), at(hi)
	return min(max(a*(1-frac)+b*frac, a), b), nil
}

// Quartiles bundles the five-number-plus-whiskers summary used by the
// hour-of-day load plot (Figure 5a): median, 25th/75th percentiles, and the
// 1st/99th percentile whiskers.
type Quartiles struct {
	P1, P25, Median, P75, P99 float64
}

// quartiles reads the Figure 5a summary off a percentile function.
func quartiles(pct func(p float64) (float64, error)) (Quartiles, error) {
	var q Quartiles
	var err error
	if q.P1, err = pct(1); err != nil {
		return q, err
	}
	q.P25, _ = pct(25)
	q.Median, _ = pct(50)
	q.P75, _ = pct(75)
	q.P99, _ = pct(99)
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

// complement turns P[X <= v] into P[X > v].
func complement(f float64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return 1 - f, nil
}

// ErrOutOfRange is returned by every PercentHist query once an observation
// outside [0, 100] has been added.
var ErrOutOfRange = errors.New("stats: observation outside [0, 100]")

// PercentHist is an exact count histogram of the integers 0..100. On the
// same multiset its queries return bit for bit what Sample's return, in
// constant memory. The zero value is an empty histogram.
type PercentHist struct {
	counts [101]int64
	n      int64 // every Add, binned or not
}

// Add records v. A v outside [0, 100] is counted but not binned.
func (h *PercentHist) Add(v int) {
	h.n++
	if uint(v) <= 100 {
		h.counts[v]++
	}
}

// Len returns the number of observations added.
func (h *PercentHist) Len() int { return int(h.n) }

// check is every query's precondition: each Add binned, and at least one.
func (h *PercentHist) check() error {
	var binned int64
	for _, c := range h.counts {
		binned += c
	}
	if binned != h.n {
		return ErrOutOfRange
	}
	if h.n == 0 {
		return ErrEmpty
	}
	return nil
}

// Sum returns Σ v·count. Every partial sum is an integer far below 2^53,
// so a float64 sum of the same observations is exact in any order.
func (h *PercentHist) Sum() (int64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	var sum int64
	for v, c := range h.counts {
		sum += int64(v) * c
	}
	return sum, nil
}

// Mean returns the arithmetic mean.
func (h *PercentHist) Mean() (float64, error) {
	sum, err := h.Sum()
	if err != nil {
		return 0, err
	}
	return float64(sum) / float64(h.n), nil
}

// Percentile is Sample.Percentile, reading the k-th smallest observation
// off the cumulative counts.
func (h *PercentHist) Percentile(p float64) (float64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	return percentile(h.Len(), p, func(k int) float64 {
		v := 0
		for r := int64(k); r >= h.counts[v]; v++ {
			r -= h.counts[v]
		}
		return float64(v)
	})
}

// Median returns the 50th percentile.
func (h *PercentHist) Median() (float64, error) { return h.Percentile(50) }

// Quartiles computes the Figure 5a summary.
func (h *PercentHist) Quartiles() (Quartiles, error) { return quartiles(h.Percentile) }

// CDF is Sample.CDF: one point per distinct observed value.
func (h *PercentHist) CDF() ([]DistPoint, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	pts := make([]DistPoint, 0, len(h.counts)) // one allocation, however many values occur
	var cum int64
	for v, c := range h.counts {
		if c > 0 {
			cum += c
			pts = append(pts, DistPoint{Value: float64(v), Fraction: float64(cum) / float64(h.n)})
		}
	}
	return pts, nil
}

// FractionAtMost is Sample.FractionAtMost: the share of observations below
// the next float after x, so all of them for a NaN x.
func (h *PercentHist) FractionAtMost(x float64) (float64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	next := math.Nextafter(x, math.Inf(1))
	var k int64
	for v := 0; v <= 100 && !(float64(v) >= next); v++ {
		k += h.counts[v]
	}
	return float64(k) / float64(h.n), nil
}

// FractionGreater returns the empirical P[X > x].
func (h *PercentHist) FractionGreater(x float64) (float64, error) {
	return complement(h.FractionAtMost(x))
}
