package geom

import "math"

// BoundaryToward returns the point where the ray from the rectangle's
// center toward dir (an absolute angle in radians, SVG orientation: y grows
// downward) crosses the boundary, along with its perimeter arc position.
// For an empty rectangle it returns the center.
func (r Rect) BoundaryToward(angle float64) (Point, float64) {
	c := r.Center()
	w2, h2 := r.W()/2, r.H()/2
	if w2 <= 0 || h2 <= 0 {
		return c, 0
	}
	dx, dy := math.Cos(angle), math.Sin(angle)
	// Scale the direction to reach the boundary of the half-extent box.
	tx, ty := math.Inf(1), math.Inf(1)
	if dx != 0 {
		tx = w2 / math.Abs(dx)
	}
	if dy != 0 {
		ty = h2 / math.Abs(dy)
	}
	t := math.Min(tx, ty)
	pt := Pt(c.X+dx*t, c.Y+dy*t)
	return pt, r.PerimeterPos(pt)
}

// PerimeterPos returns the arc position of a boundary point p, measured
// clockwise (in SVG screen coordinates) from the top-left corner: along
// the top edge, down the right edge, along the bottom edge, up the left
// edge. Points off the boundary are projected to the nearest edge first.
func (r Rect) PerimeterPos(p Point) float64 {
	w, h := r.W(), r.H()
	// Distances to the four edges.
	dTop := math.Abs(p.Y - r.Min.Y)
	dRight := math.Abs(p.X - r.Max.X)
	dBottom := math.Abs(p.Y - r.Max.Y)
	dLeft := math.Abs(p.X - r.Min.X)
	clampX := math.Max(r.Min.X, math.Min(r.Max.X, p.X))
	clampY := math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y))
	min := math.Min(math.Min(dTop, dBottom), math.Min(dLeft, dRight))
	switch min {
	case dTop:
		return clampX - r.Min.X
	case dRight:
		return w + (clampY - r.Min.Y)
	case dBottom:
		return w + h + (r.Max.X - clampX)
	default:
		return 2*w + h + (r.Max.Y - clampY)
	}
}
