package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); !got.Eq(Pt(4, 2)) {
		t.Errorf("Add = %v, want (4, 2)", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(2, 6)) {
		t.Errorf("Sub = %v, want (2, 6)", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(6, 8)) {
		t.Errorf("Scale = %v, want (6, 8)", got)
	}
	if got := p.Cross(q); got != -6-4 {
		t.Errorf("Cross = %v, want -10", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int32) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+Epsilon
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMid(t *testing.T) {
	if got := Mid(Pt(0, 0), Pt(10, 4)); !got.Eq(Pt(5, 2)) {
		t.Errorf("Mid = %v, want (5, 2)", got)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); !got.Eq(Pt(0, 0)) {
		t.Errorf("Centroid(nil) = %v, want origin", got)
	}
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); !got.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v, want (1, 1)", got)
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if got := s.Dir(); !got.Eq(Pt(0.6, 0.8)) {
		t.Errorf("Dir = %v, want (0.6, 0.8)", got)
	}
	if got := s.PointAt(0.5); !got.Eq(Pt(1.5, 2)) {
		t.Errorf("PointAt(0.5) = %v", got)
	}
}

func TestSegmentDegenerateDir(t *testing.T) {
	s := Seg(Pt(1, 1), Pt(1, 1))
	if got := s.Dir(); !got.Eq(Pt(0, 0)) {
		t.Errorf("degenerate Dir = %v, want zero", got)
	}
}

func TestLineDegenerate(t *testing.T) {
	l := LineThrough(Pt(3, 3), Pt(3, 3))
	if !l.Degenerate() {
		t.Fatal("expected degenerate line")
	}
}

func TestLineSide(t *testing.T) {
	l := LineThrough(Pt(0, 0), Pt(10, 0))
	if got := l.Side(Pt(5, 5)); got != 1 {
		t.Errorf("Side above = %d, want 1", got)
	}
	if got := l.Side(Pt(5, -5)); got != -1 {
		t.Errorf("Side below = %d, want -1", got)
	}
	if got := l.Side(Pt(42, 0)); got != 0 {
		t.Errorf("Side on = %d, want 0", got)
	}
}

func TestRectFromXYWHNormalizes(t *testing.T) {
	r := RectFromXYWH(10, 10, -4, -6)
	if r.Min.X != 6 || r.Min.Y != 4 || r.Max.X != 10 || r.Max.Y != 10 {
		t.Errorf("normalized rect = %+v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectFromXYWH(0, 0, 10, 4)
	if r.W() != 10 || r.H() != 4 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !r.Center().Eq(Pt(5, 2)) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 4)) || !r.Contains(Pt(5, 2)) {
		t.Error("Contains failed for interior/boundary points")
	}
	if r.Contains(Pt(11, 2)) || r.Contains(Pt(5, -1)) {
		t.Error("Contains accepted exterior point")
	}
}

func TestRectInflate(t *testing.T) {
	r := RectFromXYWH(5, 5, 10, 10).Inflate(2)
	if !r.Contains(Pt(3.5, 3.5)) {
		t.Error("inflated rect should contain (3.5, 3.5)")
	}
	shrunk := r.Inflate(-2)
	if shrunk.Contains(Pt(3.5, 3.5)) {
		t.Error("deflated rect should not contain (3.5, 3.5)")
	}
}

func TestRectIntersectsLine(t *testing.T) {
	r := RectFromXYWH(10, 10, 20, 10) // x:[10,30] y:[10,20]
	cases := []struct {
		name string
		l    Line
		want bool
	}{
		{"horizontal through middle", LineThrough(Pt(0, 15), Pt(1, 15)), true},
		{"horizontal above", LineThrough(Pt(0, 5), Pt(1, 5)), false},
		{"horizontal below", LineThrough(Pt(0, 25), Pt(1, 25)), false},
		{"vertical through", LineThrough(Pt(20, 0), Pt(20, 1)), true},
		{"vertical left of", LineThrough(Pt(5, 0), Pt(5, 1)), false},
		{"diagonal through", LineThrough(Pt(0, 0), Pt(30, 20)), true},
		{"diagonal missing", LineThrough(Pt(0, 0), Pt(1, 10)), false},
		{"touching corner", LineThrough(Pt(0, 0), Pt(10, 10)), true},
		{"touching top edge", LineThrough(Pt(0, 10), Pt(1, 10)), true},
	}
	for _, c := range cases {
		if got := r.IntersectsLine(c.l); got != c.want {
			t.Errorf("%s: IntersectsLine = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRectIntersectsDegenerateLine(t *testing.T) {
	r := RectFromXYWH(0, 0, 10, 10)
	if !r.IntersectsLine(LineThrough(Pt(5, 5), Pt(5, 5))) {
		t.Error("degenerate line inside rect should intersect")
	}
	if r.IntersectsLine(LineThrough(Pt(50, 50), Pt(50, 50))) {
		t.Error("degenerate line outside rect should not intersect")
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := RectFromXYWH(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},
		{Pt(15, 5), 5},
		{Pt(5, -3), 3},
		{Pt(13, 14), 5},
		{Pt(10, 10), 0},
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); math.Abs(got-c.want) > Epsilon {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Property: a line through the centers of two disjoint rects intersects both.
func TestLineThroughCentersIntersectsBoth(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := RectFromXYWH(float64(ax), float64(ay), 10, 6)
		b := RectFromXYWH(float64(bx)+300, float64(by)+300, 10, 6)
		l := LineThrough(a.Center(), b.Center())
		return a.IntersectsLine(l) && b.IntersectsLine(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IntersectsLine is invariant to swapping the line's defining points.
func TestIntersectsLineSymmetric(t *testing.T) {
	f := func(px, py, qx, qy int16) bool {
		r := RectFromXYWH(100, 100, 40, 20)
		p := Pt(float64(px%500), float64(py%500))
		q := Pt(float64(qx%500), float64(qy%500))
		return r.IntersectsLine(LineThrough(p, q)) == r.IntersectsLine(LineThrough(q, p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// arrow builds an arrow polygon pointing from base toward tip: a triangle
// head whose base edge is perpendicular to the direction of travel.
func arrow(base, tip Point, halfWidth float64) Polygon {
	d := tip.Sub(base)
	n := d.Norm()
	if n == 0 {
		return Polygon{base}
	}
	// Perpendicular unit vector.
	perp := Pt(-d.Y/n, d.X/n).Scale(halfWidth)
	return Polygon{base.Add(perp), base.Sub(perp), tip}
}

func TestArrowTipAndBase(t *testing.T) {
	base, tip := Pt(0, 0), Pt(30, 0)
	pg := arrow(base, tip, 4)
	gotTip, ok := pg.ArrowTip()
	if !ok || !gotTip.Eq(tip) {
		t.Errorf("ArrowTip = %v, %v; want %v", gotTip, ok, tip)
	}
	gotBase, ok := pg.ArrowBase()
	if !ok || gotBase.Dist(base) > 1e-6 {
		t.Errorf("ArrowBase = %v, %v; want %v", gotBase, ok, base)
	}
}

func TestArrowTipDiagonal(t *testing.T) {
	base, tip := Pt(10, 20), Pt(50, 80)
	pg := arrow(base, tip, 3)
	gotTip, _ := pg.ArrowTip()
	if !gotTip.Eq(tip) {
		t.Errorf("diagonal ArrowTip = %v, want %v", gotTip, tip)
	}
	gotBase, _ := pg.ArrowBase()
	if gotBase.Dist(base) > 1e-6 {
		t.Errorf("diagonal ArrowBase = %v, want %v", gotBase, base)
	}
}

func TestArrowEmpty(t *testing.T) {
	if _, ok := (Polygon{}).ArrowTip(); ok {
		t.Error("ArrowTip on empty polygon should fail")
	}
	if _, ok := (Polygon{}).ArrowBase(); ok {
		t.Error("ArrowBase on empty polygon should fail")
	}
	if _, ok := (Polygon{Pt(1, 2)}).ArrowBase(); ok {
		t.Error("ArrowBase on single-point polygon should fail")
	}
}
