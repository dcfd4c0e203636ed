package stats

import (
	"testing"
	"time"
)

var t0 = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)

func at(min int) time.Time { return t0.Add(time.Duration(min) * time.Minute) }

func TestTimeSeriesOrdering(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(at(10), 2)
	ts.Append(at(0), 1)
	ts.Append(at(20), 3)
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].V != 1 || pts[1].V != 2 || pts[2].V != 3 {
		t.Errorf("points not chronological: %+v", pts)
	}
	f, ok := ts.First()
	if !ok || f.V != 1 {
		t.Errorf("First = %+v, %v", f, ok)
	}
	l, ok := ts.Last()
	if !ok || l.V != 3 {
		t.Errorf("Last = %+v, %v", l, ok)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries()
	if _, ok := ts.First(); ok {
		t.Error("First on empty should be !ok")
	}
	if _, ok := ts.Last(); ok {
		t.Error("Last on empty should be !ok")
	}
	if _, ok := ts.At(t0); ok {
		t.Error("At on empty should be !ok")
	}
	if d := ts.Deltas(); d != nil {
		t.Errorf("Deltas on empty = %v", d)
	}
}

func TestTimeSeriesAt(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(at(0), 1)
	ts.Append(at(10), 2)
	if _, ok := ts.At(at(-5)); ok {
		t.Error("At before series should be !ok")
	}
	if v, _ := ts.At(at(0)); v != 1 {
		t.Errorf("At(0) = %v, want 1", v)
	}
	if v, _ := ts.At(at(5)); v != 1 {
		t.Errorf("At(5) = %v, want 1 (step function)", v)
	}
	if v, _ := ts.At(at(100)); v != 2 {
		t.Errorf("At(100) = %v, want 2", v)
	}
}

func TestTimeSeriesDeltasAndChanges(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(at(0), 100)
	ts.Append(at(5), 100)
	ts.Append(at(10), 110) // +10
	ts.Append(at(15), 106) // -4
	d := ts.Deltas()
	if len(d) != 3 {
		t.Fatalf("Deltas len = %d", len(d))
	}
	if d[0].V != 0 || d[1].V != 10 || d[2].V != -4 {
		t.Errorf("Deltas = %+v", d)
	}
	ch := ts.Changes(4)
	if len(ch) != 2 {
		t.Fatalf("Changes len = %d, want 2: %+v", len(ch), ch)
	}
	if ch[0].Delta != 10 || ch[1].Delta != -4 {
		t.Errorf("Changes = %+v", ch)
	}
}

func TestResample(t *testing.T) {
	ts := NewTimeSeries()
	// Two points in first hour window, one in the third; second empty.
	ts.Append(at(0), 10)
	ts.Append(at(30), 20)
	ts.Append(at(125), 99)
	r := ts.Resample(time.Hour)
	pts := r.Points()
	if len(pts) != 2 {
		t.Fatalf("resampled len = %d: %+v", len(pts), pts)
	}
	if pts[0].V != 15 {
		t.Errorf("window0 mean = %v, want 15", pts[0].V)
	}
	if pts[1].V != 99 {
		t.Errorf("window2 mean = %v, want 99", pts[1].V)
	}
}

func TestResampleWindowBoundary(t *testing.T) {
	// A point landing exactly on cur.Add(step) closes the running window and
	// opens the next one: it must not be averaged into the window it bounds.
	ts := NewTimeSeries()
	ts.Append(at(0), 10)
	ts.Append(at(60), 30) // exactly one step after the window start
	r := ts.Resample(time.Hour).Points()
	if len(r) != 2 {
		t.Fatalf("resampled len = %d: %+v", len(r), r)
	}
	if r[0].T != at(0) || r[0].V != 10 {
		t.Errorf("window0 = %+v, want {%v 10}", r[0], at(0))
	}
	if r[1].T != at(60) || r[1].V != 30 {
		t.Errorf("window1 = %+v, want {%v 30}: boundary point belongs to the next window", r[1], at(60))
	}
}

func TestResampleMultiWindowGap(t *testing.T) {
	// A gap spanning several empty windows advances the window cursor past
	// all of them: the next output point is stamped at its own window start,
	// not at the first empty one.
	ts := NewTimeSeries()
	ts.Append(at(0), 1)
	ts.Append(at(5), 3)
	ts.Append(at(3*60+30), 7) // windows 1 and 2 are empty
	r := ts.Resample(time.Hour).Points()
	if len(r) != 2 {
		t.Fatalf("resampled len = %d: %+v", len(r), r)
	}
	if r[0].T != at(0) || r[0].V != 2 {
		t.Errorf("window0 = %+v, want {%v 2}", r[0], at(0))
	}
	if r[1].T != at(3*60) || r[1].V != 7 {
		t.Errorf("window3 = %+v, want {%v 7}: empty windows must be skipped, not stamped", r[1], at(3*60))
	}
}

func TestResampleEdge(t *testing.T) {
	if got := len(NewTimeSeries().Resample(time.Hour).Points()); got != 0 {
		t.Errorf("resample empty = %d points", got)
	}
	ts := NewTimeSeries()
	ts.Append(at(0), 5)
	if got := len(ts.Resample(0).Points()); got != 0 {
		t.Errorf("resample step 0 = %d points", got)
	}
}

func TestIntervals(t *testing.T) {
	times := []time.Time{at(10), at(0), at(5), at(25)}
	iv := Intervals(times)
	if len(iv) != 3 {
		t.Fatalf("Intervals len = %d", len(iv))
	}
	want := []time.Duration{5 * time.Minute, 5 * time.Minute, 15 * time.Minute}
	for i := range want {
		if iv[i] != want[i] {
			t.Errorf("iv[%d] = %v, want %v", i, iv[i], want[i])
		}
	}
	if Intervals(nil) != nil {
		t.Error("Intervals(nil) should be nil")
	}
	if Intervals(times[:1]) != nil {
		t.Error("Intervals of one timestamp should be nil")
	}
}

func TestGapsLargerThan(t *testing.T) {
	times := []time.Time{at(0), at(5), at(40), at(45)}
	gaps := GapsLargerThan(times, 10*time.Minute)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %+v", gaps)
	}
	if gaps[0].From != at(5) || gaps[0].To != at(40) {
		t.Errorf("gap = %+v", gaps[0])
	}
	if d := gaps[0].To.Sub(gaps[0].From); d != 35*time.Minute {
		t.Errorf("duration = %v", d)
	}
}

func TestGapsLargerThanUnsorted(t *testing.T) {
	// GapsLargerThan sorts a copy of its input: scrambled timestamps yield
	// the same gaps as sorted ones, and the caller's slice stays untouched.
	times := []time.Time{at(45), at(0), at(40), at(5)}
	orig := append([]time.Time(nil), times...)
	gaps := GapsLargerThan(times, 10*time.Minute)
	if len(gaps) != 1 || gaps[0].From != at(5) || gaps[0].To != at(40) {
		t.Errorf("unsorted gaps = %+v, want one gap %v..%v", gaps, at(5), at(40))
	}
	for i := range orig {
		if times[i] != orig[i] {
			t.Fatalf("input slice reordered at %d: %v", i, times[i])
		}
	}
}

func TestSegments(t *testing.T) {
	times := []time.Time{at(0), at(5), at(10), at(60), at(65)}
	segs := Segments(times, 10*time.Minute)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].From != at(0) || segs[0].To != at(10) || segs[0].Count != 3 {
		t.Errorf("seg0 = %+v", segs[0])
	}
	if segs[1].From != at(60) || segs[1].To != at(65) || segs[1].Count != 2 {
		t.Errorf("seg1 = %+v", segs[1])
	}
	if Segments(nil, time.Minute) != nil {
		t.Error("Segments(nil) should be nil")
	}
	one := Segments([]time.Time{at(3)}, time.Minute)
	if len(one) != 1 || one[0].Count != 1 {
		t.Errorf("single-timestamp segments = %+v", one)
	}
}
