// Package geom provides the 2D geometric primitives used to interpret
// weather-map SVG images.
//
// The OVH Network Weathermap lists routers, link arrows and labels as flat
// SVG elements whose relationships are expressed only through their
// placement in the 2D image plane. Reconstructing the topology (Algorithm 2
// of the paper) therefore reduces to a handful of geometric questions:
// which boxes does the straight line through a link intersect, and how far
// is each intersected box from either end of the link?
//
// All coordinates follow the SVG convention: x grows rightward, y grows
// downward, units are pixels. The zero value of every type is meaningful
// (a point at the origin, an empty rectangle, a degenerate segment).
package geom

import (
	"fmt"
	"math"
)

// Epsilon is the tolerance used by approximate comparisons. SVG documents
// carry coordinates with limited precision; two values closer than Epsilon
// are considered equal.
const Epsilon = 1e-9

// Point is a position in the 2D image plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String returns the point formatted as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by the factor k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Cross returns the z component of the cross product of p and q treated as
// vectors. Its sign tells on which side of p the vector q lies.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Eq reports whether p and q coincide within Epsilon.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) < Epsilon && math.Abs(p.Y-q.Y) < Epsilon
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Centroid returns the arithmetic mean of the given points. It returns the
// zero Point when pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// Segment is the straight stretch between two points.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{A: a, B: b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Dir returns the unit direction vector from A to B. For a degenerate
// segment (A == B) it returns the zero vector.
func (s Segment) Dir() Point {
	d := s.B.Sub(s.A)
	n := d.Norm()
	if n < Epsilon {
		return Point{}
	}
	return d.Scale(1 / n)
}

// PointAt returns the point at parameter t along the segment, where t=0
// yields A and t=1 yields B. Values outside [0,1] extrapolate.
func (s Segment) PointAt(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// Line is an infinite straight line through two distinct points. It is the
// geometric object Algorithm 2 derives from a link's two arrow bases.
type Line struct {
	P, Q Point
}

// LineThrough returns the infinite line through p and q.
func LineThrough(p, q Point) Line { return Line{P: p, Q: q} }

// Degenerate reports whether the line's defining points coincide, in which
// case the line is not well defined.
func (l Line) Degenerate() bool { return l.P.Eq(l.Q) }

// Side reports the sign of the cross product of the line direction with the
// vector to p: +1 if p lies on the left of P→Q, -1 on the right, 0 when p is
// on the line (within Epsilon).
func (l Line) Side(p Point) int {
	c := l.Q.Sub(l.P).Cross(p.Sub(l.P))
	switch {
	case c > Epsilon:
		return 1
	case c < -Epsilon:
		return -1
	default:
		return 0
	}
}

// Rect is an axis-aligned rectangle, the bounding shape of router boxes and
// label boxes in the weather map. Min is the top-left corner in SVG
// coordinates (smaller y is higher on screen) and Max the bottom-right.
type Rect struct {
	Min, Max Point
}

// RectFromXYWH builds a Rect from the SVG rect attributes x, y, width and
// height. Negative widths or heights are normalized away.
func RectFromXYWH(x, y, w, h float64) Rect {
	r := Rect{Min: Pt(x, y), Max: Pt(x+w, y+h)}
	return r.Canon()
}

// Canon returns the rectangle with Min and Max swapped per axis as needed so
// that Min.X <= Max.X and Min.Y <= Max.Y.
func (r Rect) Canon() Rect {
	if r.Min.X > r.Max.X {
		r.Min.X, r.Max.X = r.Max.X, r.Min.X
	}
	if r.Min.Y > r.Max.Y {
		r.Min.Y, r.Max.Y = r.Max.Y, r.Min.Y
	}
	return r
}

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Mid(r.Min, r.Max) }

// Contains reports whether p lies inside or on the boundary of r, with an
// Epsilon tolerance on the boundary.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Epsilon && p.X <= r.Max.X+Epsilon &&
		p.Y >= r.Min.Y-Epsilon && p.Y <= r.Max.Y+Epsilon
}

// Inflate returns the rectangle grown by d on every side. A negative d
// shrinks it.
func (r Rect) Inflate(d float64) Rect {
	return Rect{
		Min: Pt(r.Min.X-d, r.Min.Y-d),
		Max: Pt(r.Max.X+d, r.Max.Y+d),
	}
}

// Corners returns the four corners of r in clockwise order starting from
// Min (top-left in SVG coordinates).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		Pt(r.Max.X, r.Min.Y),
		r.Max,
		Pt(r.Min.X, r.Max.Y),
	}
}

// IntersectsLine reports whether the infinite line l crosses (or touches)
// the rectangle. This is the core predicate of Algorithm 2: a router or
// label box "intersects" a link when the link's supporting line passes
// through the box.
//
// The test checks whether all four corners lie strictly on the same side of
// the line; if they do not, the line crosses the rectangle. Degenerate lines
// intersect only rectangles containing their defining point.
func (r Rect) IntersectsLine(l Line) bool {
	if l.Degenerate() {
		return r.Contains(l.P)
	}
	c := r.Corners()
	pos, neg := false, false
	for _, p := range c {
		switch l.Side(p) {
		case 1:
			pos = true
		case -1:
			neg = true
		case 0:
			// A corner exactly on the line counts as touching.
			return true
		}
		if pos && neg {
			return true
		}
	}
	return false
}

// DistToPoint returns the distance from p to the rectangle: zero when p is
// inside, otherwise the distance to the nearest boundary point.
func (r Rect) DistToPoint(p Point) float64 {
	dx := math.Max(math.Max(r.Min.X-p.X, 0), p.X-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-p.Y, 0), p.Y-r.Max.Y)
	return math.Hypot(dx, dy)
}

// Polygon is a closed sequence of vertices. Weather-map link arrows are
// drawn as filled polygons; their base (the wide end opposite the tip)
// anchors the link at a router.
type Polygon []Point

// Centroid returns the vertex centroid of the polygon (not the area
// centroid; the vertex centroid is what the flat SVG processing needs, and
// it is stable under the collinear and repeated vertices that appear in
// generated arrow shapes).
func (pg Polygon) Centroid() Point { return Centroid(pg) }

// ArrowTip returns the vertex of an arrow-shaped polygon that is farthest
// from the vertex centroid. For the isoceles arrow heads the weathermap
// renderer draws, this is the arrow tip.
func (pg Polygon) ArrowTip() (Point, bool) {
	if len(pg) == 0 {
		return Point{}, false
	}
	c := pg.Centroid()
	best, bestD := pg[0], -1.0
	for _, p := range pg {
		if d := p.Dist(c); d > bestD {
			best, bestD = p, d
		}
	}
	return best, true
}

// ArrowTipDir returns the unit vector from the arrow base toward the tip,
// or the zero vector for degenerate polygons.
func (pg Polygon) ArrowTipDir() Point {
	tip, ok1 := pg.ArrowTip()
	base, ok2 := pg.ArrowBase()
	if !ok1 || !ok2 {
		return Point{}
	}
	return Seg(base, tip).Dir()
}

// ArrowBase returns the midpoint of the polygon edge farthest from the
// arrow tip — the "basis" of the arrow in the paper's terminology. The two
// arrow bases of a bidirectional link sit at the link's two router ends, and
// the line through them is the link's supporting line.
func (pg Polygon) ArrowBase() (Point, bool) {
	tip, ok := pg.ArrowTip()
	if !ok || len(pg) < 2 {
		return Point{}, false
	}
	var best Point
	bestD := -1.0
	for i := range pg {
		j := (i + 1) % len(pg)
		m := Mid(pg[i], pg[j])
		if d := m.Dist(tip); d > bestD {
			best, bestD = m, d
		}
	}
	return best, true
}
