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

// Len, Mean, Percentile, Median, Quartiles and FractionGreater complete
// Sample's side of the comparison: PercentHist answers them, and histDiff
// checks it does so exactly as the sorted sample would.

func (s *Sample) Len() int { return len(s.values) }

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

func (s *Sample) Percentile(p float64) (float64, error) {
	s.ensureSorted()
	return percentile(len(s.values), p, func(k int) float64 { return s.values[k] })
}

func (s *Sample) Median() (float64, error) { return s.Percentile(50) }

func (s *Sample) Quartiles() (Quartiles, error) { return quartiles(s.Percentile) }

func (s *Sample) FractionGreater(v float64) (float64, error) {
	return complement(s.FractionAtMost(v))
}

// Add records v, one observation at a time: the reference the bulk adds
// are held to. A v outside [0, 100] is counted but not binned.
func (h *PercentHist) Add(v int) {
	h.n++
	if uint(v) <= 100 {
		h.counts[v]++
	}
}

// bulkDiff adds raw one byte at a time with Add and again through each
// bulk add: AddPair over pairs, AddBytes over two runs cut at cut, and
// Merge of the two runs' histograms. It describes the first bulk add whose
// histogram differs, or returns "" when all are equal.
func bulkDiff(raw []byte, cut int) string {
	cut = min(max(cut, 0), len(raw))
	var added, pairs, bytes, merged, lo, hi PercentHist
	for _, b := range raw {
		added.Add(int(b))
	}
	for i := 0; i+1 < len(raw); i += 2 {
		pairs.AddPair(int(raw[i]), int(raw[i+1]))
	}
	if len(raw)%2 == 1 {
		pairs.Add(int(raw[len(raw)-1]))
	}
	AddBytes(&bytes, raw[:cut])
	AddBytes(&bytes, raw[cut:])
	AddBytes(&lo, raw[:cut])
	AddBytes(&hi, raw[cut:])
	merged.Merge(&lo)
	merged.Merge(&hi)
	for name, h := range map[string]*PercentHist{"AddPair": &pairs, "AddBytes": &bytes, "Merge": &merged} {
		if *h != added {
			return fmt.Sprintf("%v cut at %d: %s gives %+v, repeated Add %+v", raw, cut, name, *h, added)
		}
	}
	return ""
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
// Sample returns, errors included; on random bytes, out-of-range ones
// included, the bulk adds build what repeated Add builds.
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
		if d := bulkDiff(raw, int(pr)%(len(raw)+1)); d != "" {
			t.Log(d)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzPercentHistMatchesSample: every query matches Sample's on the fuzzed
// multiset, and the bulk adds (AddPair, AddBytes and Merge, over any byte,
// so out-of-range ones too) build the histogram repeated Add builds.
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
		if d := bulkDiff(raw, int(p)); d != "" {
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
