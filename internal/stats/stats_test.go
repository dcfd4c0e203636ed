package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	s := NewSample()
	if _, err := s.Mean(); err != ErrEmpty {
		t.Errorf("Mean on empty: err = %v, want ErrEmpty", err)
	}
	if _, err := s.Percentile(50); err != ErrEmpty {
		t.Errorf("Percentile on empty: err = %v, want ErrEmpty", err)
	}
	if _, err := s.CDF(); err != ErrEmpty {
		t.Errorf("CDF on empty: err = %v, want ErrEmpty", err)
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(4, 1, 3, 2)
	if n := s.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	if v, _ := s.Mean(); v != 2.5 {
		t.Errorf("Mean = %v, want 2.5", v)
	}
	if v, _ := s.Median(); v != 2.5 {
		t.Errorf("Median = %v, want 2.5", v)
	}
}

func TestSampleAddAfterSort(t *testing.T) {
	s := NewSample(3, 1)
	if v, _ := s.Percentile(0); v != 1 {
		t.Fatalf("Percentile(0) = %v", v)
	}
	s.Add(0.5)
	if v, _ := s.Percentile(0); v != 0.5 {
		t.Errorf("Percentile(0) after Add = %v, want 0.5", v)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(10, 20, 30, 40)
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		got, err := s.Percentile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	s := NewSample(42)
	for _, p := range []float64{0, 33, 100} {
		if got, _ := s.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestPercentileOutOfRange(t *testing.T) {
	s := NewSample(1, 2)
	if _, err := s.Percentile(-1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := s.Percentile(math.NaN()); err == nil {
		t.Error("Percentile(NaN) should error")
	}
}

// Property: percentiles are monotone in p and bounded by the extremes.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range raw {
			s.Add(float64(v))
		}
		p1 := float64(pa) / 255 * 100
		p2 := float64(pb) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, _ := s.Percentile(p1)
		v2, _ := s.Percentile(p2)
		mn, mx := slices.Min(s.values), slices.Max(s.values)
		return v1 <= v2 && v1 >= mn && v2 <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuartiles(t *testing.T) {
	s := NewSample()
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	q, err := s.Quartiles()
	if err != nil {
		t.Fatal(err)
	}
	if q.P1 != 1 || q.P25 != 25 || q.Median != 50 || q.P75 != 75 || q.P99 != 99 {
		t.Errorf("Quartiles = %+v", q)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(1, 2, 2, 3)
	cdf, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	want := []DistPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF len = %d, want %d: %+v", len(cdf), len(want), cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("CDF[%d] = %+v, want %+v", i, cdf[i], want[i])
		}
	}
}

func TestCCDF(t *testing.T) {
	s := NewSample(1, 2, 2, 3)
	ccdf, err := s.CCDF()
	if err != nil {
		t.Fatal(err)
	}
	want := []DistPoint{{1, 0.75}, {2, 0.25}, {3, 0}}
	for i := range want {
		if math.Abs(ccdf[i].Fraction-want[i].Fraction) > 1e-12 || ccdf[i].Value != want[i].Value {
			t.Errorf("CCDF[%d] = %+v, want %+v", i, ccdf[i], want[i])
		}
	}
}

// Property: CDF is monotone non-decreasing and ends at 1.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range raw {
			s.Add(float64(v))
		}
		cdf, err := s.CDF()
		if err != nil {
			return false
		}
		prevV, prevF := math.Inf(-1), 0.0
		for _, p := range cdf {
			if p.Value <= prevV || p.Fraction < prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return math.Abs(cdf[len(cdf)-1].Fraction-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionAtMost(t *testing.T) {
	s := NewSample(10, 20, 30, 40)
	cases := []struct {
		v, want float64
	}{
		{5, 0}, {10, 0.25}, {25, 0.5}, {40, 1}, {100, 1},
	}
	for _, c := range cases {
		got, err := s.FractionAtMost(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("FractionAtMost(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	g, _ := s.FractionGreater(25)
	if g != 0.5 {
		t.Errorf("FractionGreater(25) = %v, want 0.5", g)
	}
}

// Property: sorting values through Sample preserves multiset membership.
func TestSampleSortPreservesValues(t *testing.T) {
	f := func(raw []float32) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := NewSample(vals...)
		s.Percentile(50) // force sort
		got := append([]float64(nil), s.values...)
		sort.Float64s(vals)
		sort.Float64s(got)
		if len(got) != len(vals) {
			return false
		}
		for i := range got {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
