package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// perimeterPoint is the inverse of Rect.PerimeterPos: the boundary point
// at arc position s, which wraps modulo the perimeter (negative values
// wrap backwards).
func perimeterPoint(r Rect, s float64) Point {
	p := 2 * (r.W() + r.H())
	if p <= 0 {
		return r.Min
	}
	s = math.Mod(s, p)
	if s < 0 {
		s += p
	}
	w, h := r.W(), r.H()
	switch {
	case s < w:
		return Pt(r.Min.X+s, r.Min.Y)
	case s < w+h:
		return Pt(r.Max.X, r.Min.Y+(s-w))
	case s < 2*w+h:
		return Pt(r.Max.X-(s-w-h), r.Max.Y)
	default:
		return Pt(r.Min.X, r.Max.Y-(s-2*w-h))
	}
}

func TestPerimeterPointCorners(t *testing.T) {
	r := RectFromXYWH(0, 0, 10, 4)
	cases := []struct {
		s    float64
		want Point
	}{
		{0, Pt(0, 0)},
		{10, Pt(10, 0)}, // top-right corner
		{14, Pt(10, 4)}, // bottom-right
		{24, Pt(0, 4)},  // bottom-left
		{28, Pt(0, 0)},  // full wrap
		{-4, Pt(0, 4)},  // negative wrap
		{5, Pt(5, 0)},   // mid top
		{12, Pt(10, 2)}, // mid right
		{19, Pt(5, 4)},  // mid bottom
		{26, Pt(0, 2)},  // mid left
	}
	for _, c := range cases {
		if got := perimeterPoint(r, c.s); !got.Eq(c.want) {
			t.Errorf("perimeterPoint(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPerimeterRoundTrip(t *testing.T) {
	r := RectFromXYWH(5, 7, 30, 12)
	f := func(raw uint16) bool {
		s := float64(raw) / 65535 * 2 * (r.W() + r.H())
		p := perimeterPoint(r, s)
		back := r.PerimeterPos(p)
		// Positions at corners may map to the adjacent edge start; compare
		// points, not arc values.
		return perimeterPoint(r, back).Dist(p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundaryToward(t *testing.T) {
	r := RectFromXYWH(0, 0, 20, 10) // center (10, 5)
	cases := []struct {
		angle float64
		want  Point
	}{
		{0, Pt(20, 5)},            // east
		{math.Pi / 2, Pt(10, 10)}, // south (y grows downward)
		{math.Pi, Pt(0, 5)},       // west
		{-math.Pi / 2, Pt(10, 0)}, // north
	}
	for _, c := range cases {
		got, s := r.BoundaryToward(c.angle)
		if !got.Eq(c.want) {
			t.Errorf("BoundaryToward(%v) = %v, want %v", c.angle, got, c.want)
		}
		if back := perimeterPoint(r, s); back.Dist(got) > 1e-9 {
			t.Errorf("arc position inconsistent: %v vs %v", back, got)
		}
	}
}

func TestBoundaryTowardAlwaysOnBoundary(t *testing.T) {
	r := RectFromXYWH(3, 4, 17, 9)
	f := func(raw uint16) bool {
		angle := float64(raw) / 65535 * 2 * math.Pi
		p, _ := r.BoundaryToward(angle)
		onX := math.Abs(p.X-r.Min.X) < 1e-9 || math.Abs(p.X-r.Max.X) < 1e-9
		onY := math.Abs(p.Y-r.Min.Y) < 1e-9 || math.Abs(p.Y-r.Max.Y) < 1e-9
		return (onX || onY) && r.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerimeterDegenerate(t *testing.T) {
	var r Rect
	if got := perimeterPoint(r, 5); !got.Eq(r.Min) {
		t.Errorf("degenerate perimeterPoint = %v", got)
	}
	p, s := r.BoundaryToward(1)
	if !p.Eq(r.Center()) || s != 0 {
		t.Errorf("degenerate BoundaryToward = %v, %v", p, s)
	}
}
