package stats

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// histCases are the explicit multisets: empty, single-value, all-equal,
// all-0 and all-100.
var histCases = map[string][]int{
	"empty":     {},
	"single":    {42},
	"all-equal": {7, 7, 7, 7, 7},
	"all-0":     {0, 0, 0},
	"all-100":   {100, 100, 100, 100},
}

// histPs are the percentiles every comparison queries, the out-of-range
// ones included.
var histPs = []float64{0, 1, 25, 50, 75, 99, 100, math.NaN(), -1, 101}

// histXs are the FractionAtMost/FractionGreater arguments every comparison
// queries: the infinities, NaN, -1, and every integer and half-integer
// over [0, 100.5].
func histXs() []float64 {
	xs := []float64{math.Inf(-1), -1, math.Inf(1), math.NaN()}
	for v := 0; v <= 100; v++ {
		xs = append(xs, float64(v), float64(v)+0.5)
	}
	return xs
}

// histDiff runs every PercentHist query and Sample's counterpart on the
// multiset vals and describes the first result or error that differs, or
// returns "" when all match exactly.
func histDiff(vals []int, ps, xs []float64) string {
	s := NewSample()
	var h PercentHist
	var sum float64
	for _, v := range vals {
		s.Add(float64(v))
		h.Add(v)
		sum += float64(v)
	}
	diff := func(what string, want, got any, wantErr, gotErr error) string {
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || !reflect.DeepEqual(want, got) {
			return fmt.Sprintf("%v: %s: Sample %v (err %v), PercentHist %v (err %v)", vals, what, want, wantErr, got, gotErr)
		}
		return ""
	}
	if d := diff("Len", s.Len(), h.Len(), nil, nil); d != "" {
		return d
	}
	var sumErr error
	if len(vals) == 0 {
		sum, sumErr = 0, ErrEmpty
	}
	hs, err := h.Sum()
	if d := diff("Sum", sum, float64(hs), sumErr, err); d != "" {
		return d
	}
	want, wantErr := s.Mean()
	got, gotErr := h.Mean()
	if d := diff("Mean", want, got, wantErr, gotErr); d != "" {
		return d
	}
	wantCDF, wantErr := s.CDF()
	gotCDF, gotErr := h.CDF()
	if d := diff("CDF", wantCDF, gotCDF, wantErr, gotErr); d != "" {
		return d
	}
	wantQ, wantErr := s.Quartiles()
	gotQ, gotErr := h.Quartiles()
	if d := diff("Quartiles", wantQ, gotQ, wantErr, gotErr); d != "" {
		return d
	}
	want, wantErr = s.Median()
	got, gotErr = h.Median()
	if d := diff("Median", want, got, wantErr, gotErr); d != "" {
		return d
	}
	for _, p := range ps {
		want, wantErr := s.Percentile(p)
		got, gotErr := h.Percentile(p)
		if d := diff(fmt.Sprintf("Percentile(%v)", p), want, got, wantErr, gotErr); d != "" {
			return d
		}
	}
	for _, x := range xs {
		want, wantErr := s.FractionAtMost(x)
		got, gotErr := h.FractionAtMost(x)
		if d := diff(fmt.Sprintf("FractionAtMost(%v)", x), want, got, wantErr, gotErr); d != "" {
			return d
		}
		want, wantErr = s.FractionGreater(x)
		got, gotErr = h.FractionGreater(x)
		if d := diff(fmt.Sprintf("FractionGreater(%v)", x), want, got, wantErr, gotErr); d != "" {
			return d
		}
	}
	return ""
}

// percents maps arbitrary bytes onto [0, 100].
func percents(raw []byte) []int {
	vals := make([]int, len(raw))
	for i, b := range raw {
		vals[i] = int(b) % 101
	}
	return vals
}

// TestPercentHistMatchesSample: on random integer multisets in [0, 100] and
// on the explicit cases, every PercentHist query returns exactly what
// Sample returns, errors included.
func TestPercentHistMatchesSample(t *testing.T) {
	xs := histXs()
	for name, vals := range histCases {
		if d := histDiff(vals, histPs, xs); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	f := func(raw []byte, pr uint16) bool {
		p := float64(pr) / math.MaxUint16 * 100
		if d := histDiff(percents(raw), append(histPs, p), xs); d != "" {
			t.Log(d)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func FuzzPercentHistMatchesSample(f *testing.F) {
	for _, vals := range histCases {
		raw := make([]byte, len(vals))
		for i, v := range vals {
			raw[i] = byte(v)
		}
		f.Add(raw, 50.0, 50.5)
	}
	xs := histXs()
	f.Fuzz(func(t *testing.T, raw []byte, p, x float64) {
		if d := histDiff(percents(raw), append(histPs, p), append(xs, x)); d != "" {
			t.Fatal(d)
		}
	})
}

// TestPercentHistOutOfRange: one observation outside [0, 100] among valid
// ones makes every query fail with ErrOutOfRange, and is still counted.
func TestPercentHistOutOfRange(t *testing.T) {
	for _, bad := range []int{-1, 101} {
		var h PercentHist
		h.Add(50)
		h.Add(bad)
		h.Add(60)
		if h.Len() != 3 {
			t.Errorf("Add(%d): Len = %d, want 3", bad, h.Len())
		}
		queries := map[string]func() error{
			"Sum":             func() error { _, err := h.Sum(); return err },
			"Mean":            func() error { _, err := h.Mean(); return err },
			"Percentile":      func() error { _, err := h.Percentile(50); return err },
			"Median":          func() error { _, err := h.Median(); return err },
			"Quartiles":       func() error { _, err := h.Quartiles(); return err },
			"CDF":             func() error { _, err := h.CDF(); return err },
			"FractionAtMost":  func() error { _, err := h.FractionAtMost(50); return err },
			"FractionGreater": func() error { _, err := h.FractionGreater(50); return err },
		}
		for name, q := range queries {
			if err := q(); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("Add(%d): %s err = %v, want ErrOutOfRange", bad, name, err)
			}
		}
	}
}
