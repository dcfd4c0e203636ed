package extract

import (
	"math"
	"slices"

	"ovhweather/internal/geom"
)

// boxIndex is a uniform-grid spatial index over rectangles. Algorithm 2
// asks, for every link end, for the closest box that intersects the link's
// line; the grid answers it by expanding square rings of cells around the
// end until the best candidate provably beats everything unexamined. On a
// Europe-scale document this replaces a full scan of ~2,200 boxes per link
// end with a handful of cell visits, since the true answer is almost always
// in the end's own cell (the end sits inside its router box, and its label
// is a few pixels away).
//
// The grid is dense and stored CSR-style: cells [x0, x0+nx) × [y0, y0+ny)
// cover every box, row-major, and the boxes registered in cell k are
// items[start[k]:start[k+1]], in ascending box order. A box is registered in
// every cell it overlaps. Building it is a count, a prefix sum and a
// placement pass over two flat arrays, which a reused index keeps between
// builds.
type boxIndex struct {
	cell  float64
	boxes []geom.Rect

	x0, y0, nx, ny int
	start          []int32 // nx*ny+1 offsets into items
	items          []int32
	// linear marks an index that is empty or whose boxes the grid cannot
	// place; every query scans all boxes.
	linear bool
}

// maxCellIndex bounds |coordinate / cell| for every box and end the grid
// places, which keeps cell arithmetic far from overflow and distances
// finite. A box beyond it, or with a NaN or infinite coordinate (a
// malformed document can carry either), makes the index linear; an end
// beyond it is answered by a linear scan too.
const maxCellIndex = 1 << 40

// newBoxIndex builds an index over the given boxes with the given cell
// size.
func newBoxIndex(boxes []geom.Rect, cell float64) *boxIndex {
	idx := new(boxIndex)
	idx.build(boxes, cell)
	return idx
}

// gridCell returns the cell size to index boxes with: base, doubled until
// the grid has at most 8 cells per box (plus 256) and registers at most as
// many box-cell pairs. That bounds the index's memory by the number of
// boxes, whatever the canvas, and gives the sparse router field of a
// Europe map (183 boxes) 256-pixel cells and its 2,018 labels 128-pixel
// ones. Any cell size gives the same answers.
func gridCell(boxes []geom.Rect, base float64) float64 {
	if len(boxes) == 0 || !placeable(boxes, base) {
		return base
	}
	minX, minY, maxX, maxY := boxes[0].Min.X, boxes[0].Min.Y, boxes[0].Max.X, boxes[0].Max.Y
	for _, b := range boxes[1:] {
		minX, minY = min(minX, b.Min.X), min(minY, b.Min.Y)
		maxX, maxY = max(maxX, b.Max.X), max(maxY, b.Max.Y)
	}
	budget := float64(8*len(boxes) + 256)
	cell := base
	for ; ; cell *= 2 {
		cells := span(minX, maxX, cell) * span(minY, maxY, cell)
		if cells > budget {
			continue
		}
		regs := 0.0
		for _, b := range boxes {
			regs += span(b.Min.X, b.Max.X, cell) * span(b.Min.Y, b.Max.Y, cell)
		}
		if regs <= budget {
			return cell
		}
	}
}

// span is the number of cells [lo, hi] overlaps along one axis.
func span(lo, hi, cell float64) float64 {
	return math.Floor(hi/cell) - math.Floor(lo/cell) + 1
}

// placeable reports whether every box coordinate is finite and within
// maxCellIndex cells of the origin.
func placeable(boxes []geom.Rect, cell float64) bool {
	lim := maxCellIndex * cell
	for _, b := range boxes {
		if !(math.Abs(b.Min.X) < lim && math.Abs(b.Min.Y) < lim && math.Abs(b.Max.X) < lim && math.Abs(b.Max.Y) < lim) {
			return false
		}
	}
	return true
}

// build (re)indexes boxes with the given cell size, reusing idx's arrays.
// The index aliases boxes until the next build.
func (idx *boxIndex) build(boxes []geom.Rect, cell float64) {
	idx.cell, idx.boxes = cell, boxes
	idx.nx, idx.ny = 0, 0
	idx.linear = len(boxes) == 0 || !placeable(boxes, cell)
	if idx.linear {
		return
	}
	x0, y0 := idx.cellOf(boxes[0].Min)
	x1, y1 := idx.cellOf(boxes[0].Max)
	for _, b := range boxes[1:] {
		bx0, by0 := idx.cellOf(b.Min)
		bx1, by1 := idx.cellOf(b.Max)
		x0, y0 = min(x0, bx0), min(y0, by0)
		x1, y1 = max(x1, bx1), max(y1, by1)
	}
	idx.x0, idx.y0, idx.nx, idx.ny = x0, y0, x1-x0+1, y1-y0+1

	// Count each cell's boxes into start[k] and prefix-sum so that start[k]
	// is the end of cell k's run; then place the boxes back to front,
	// decrementing each run's end, so runs come out ascending and start[k]
	// ends at the beginning of cell k's run.
	n := idx.nx * idx.ny
	idx.start = slices.Grow(idx.start[:0], n+1)[:n+1]
	clear(idx.start)
	for _, b := range boxes {
		bx0, by0, bx1, by1 := idx.cells(b)
		for cy := by0; cy <= by1; cy++ {
			for k := cy*idx.nx + bx0; k <= cy*idx.nx+bx1; k++ {
				idx.start[k]++
			}
		}
	}
	for k := 1; k < n; k++ {
		idx.start[k] += idx.start[k-1]
	}
	idx.start[n] = idx.start[n-1]
	idx.items = slices.Grow(idx.items[:0], int(idx.start[n]))[:idx.start[n]]
	for i := len(boxes) - 1; i >= 0; i-- {
		bx0, by0, bx1, by1 := idx.cells(boxes[i])
		for cy := by0; cy <= by1; cy++ {
			for k := cy*idx.nx + bx0; k <= cy*idx.nx+bx1; k++ {
				idx.start[k]--
				idx.items[idx.start[k]] = int32(i)
			}
		}
	}
}

// cells returns the grid-relative cell range b overlaps.
func (idx *boxIndex) cells(b geom.Rect) (x0, y0, x1, y1 int) {
	x0, y0 = idx.cellOf(b.Min)
	x1, y1 = idx.cellOf(b.Max)
	return x0 - idx.x0, y0 - idx.y0, x1 - idx.x0, y1 - idx.y0
}

func (idx *boxIndex) cellOf(p geom.Point) (int, int) {
	return int(math.Floor(p.X / idx.cell)), int(math.Floor(p.Y / idx.cell))
}

// closestIntersecting returns the index of the box closest to end among the
// boxes that intersect line, or -1. Closest orders by distance to end, then
// by Min.X, then Min.Y, then box index: the first box in index order that
// closerBox cannot beat, which is what a linear scan finds. skip, if
// non-nil, marks boxes to ignore (consumed labels).
//
// The ring search is exact. Entering ring r, rings 0..r-1 (every cell
// within Chebyshev distance r-1 of the end's cell) are examined, so every
// unexamined box lies wholly in cells at ring r or beyond. Such a cell is
// separated from the end's cell by r-1 whole cells along some axis, and the
// end is margin away from its own cell's nearest boundary, so every point
// of the box is at least (r-1)·cell + margin from the end. Once the best
// distance found is strictly below that bound, no unexamined box can win
// or tie. An end inside its router box (distance 0) therefore stops at
// ring 0 unless it sits on a cell line.
func (idx *boxIndex) closestIntersecting(line geom.Line, end geom.Point, skip []bool) int {
	q := ringQuery{boxes: idx.boxes, line: line, end: end, skip: skip, best: -1}
	if lim := maxCellIndex * idx.cell; idx.linear || !(math.Abs(end.X) < lim && math.Abs(end.Y) < lim) {
		q.scanAll()
		return q.best
	}
	ex, ey := idx.cellOf(end)
	fx := end.X - float64(ex)*idx.cell
	fy := end.Y - float64(ey)*idx.cell
	margin := max(0, min(fx, idx.cell-fx, fy, idx.cell-fy))
	cx, cy := ex-idx.x0, ey-idx.y0 // may lie outside the grid

	// maxRing is the Chebyshev distance to the grid's farthest corner;
	// beyond it every ring is empty. slack absorbs the rounding in cellOf,
	// the margin and the box distances, a few ulps of the coordinates'
	// magnitude, so the stop bound never exceeds a box's computed distance.
	// Rings nearer than minRing miss the grid and are empty.
	maxRing := max(abs(cx), abs(idx.nx-1-cx), abs(cy), abs(idx.ny-1-cy))
	minRing := max(0, -cx, cx-idx.nx+1, -cy, cy-idx.ny+1)
	slack := 1e-9 * (math.Abs(end.X) + math.Abs(end.Y) + float64(maxRing+1)*idx.cell)

	for r := minRing; r <= maxRing; r++ {
		if q.best >= 0 && r >= 1 && q.bestD < float64(r-1)*idx.cell+margin-slack {
			break
		}
		// The ring's top and bottom rows are each one contiguous run of
		// items; its side columns are visited cell by cell. A box spanning
		// several cells may be evaluated more than once, which cannot
		// change the answer.
		xlo, xhi := max(cx-r, 0), min(cx+r, idx.nx-1)
		if xlo <= xhi {
			if y := cy - r; y >= 0 && y < idx.ny {
				q.scan(idx.run(y, xlo, xhi))
			}
			if y := cy + r; r > 0 && y >= 0 && y < idx.ny {
				q.scan(idx.run(y, xlo, xhi))
			}
		}
		if r == 0 {
			continue
		}
		ylo, yhi := max(cy-r+1, 0), min(cy+r-1, idx.ny-1)
		for _, x := range [2]int{cx - r, cx + r} {
			if x < 0 || x >= idx.nx {
				continue
			}
			for y := ylo; y <= yhi; y++ {
				q.scan(idx.run(y, x, x))
			}
		}
	}
	return q.best
}

// run returns the items of the cells (xlo..xhi, y), which CSR keeps
// contiguous.
func (idx *boxIndex) run(y, xlo, xhi int) []int32 {
	row := y * idx.nx
	return idx.items[idx.start[row+xlo]:idx.start[row+xhi+1]]
}

// ringQuery is one closestIntersecting search: its inputs and the best box
// found so far.
type ringQuery struct {
	boxes         []geom.Rect
	line          geom.Line
	end           geom.Point
	skip          []bool
	best          int
	bestD, bestSq float64
}

// scan evaluates the candidate boxes of one run of cells. A box's distance
// is geom.Rect.DistToPoint's, computed the same way (the axis gaps below
// equal math.Max's on the finite coordinates a placed grid holds). Two
// rejects come before the square root and the line test: an axis gap, and
// a squared distance, beyond the best distance.
func (q *ringQuery) scan(run []int32) {
	for _, ci := range run {
		i := int(ci)
		if q.skip != nil && q.skip[i] {
			continue
		}
		b := &q.boxes[i]
		dx, dy := 0.0, 0.0
		if g := b.Min.X - q.end.X; g > 0 {
			dx = g
		}
		if g := q.end.X - b.Max.X; g > dx {
			dx = g
		}
		if g := b.Min.Y - q.end.Y; g > 0 {
			dy = g
		}
		if g := q.end.Y - b.Max.Y; g > dy {
			dy = g
		}
		if q.best >= 0 {
			if dx > q.bestD || dy > q.bestD || dx*dx+dy*dy > q.bestSq {
				continue
			}
			d := math.Hypot(dx, dy)
			if !(d < q.bestD || d == q.bestD && before(b, &q.boxes[q.best], i, q.best)) {
				continue
			}
			if !b.IntersectsLine(q.line) {
				continue
			}
			q.take(i, d)
			continue
		}
		if b.IntersectsLine(q.line) {
			q.take(i, math.Hypot(dx, dy))
		}
	}
}

// take makes box i, at distance d, the best so far. bestSq bounds the
// squared axis gaps of any box at most d away: d² widened by far more than
// the rounding of the squares, or +Inf (no reject) where d² could underflow
// or overflow. At d = 0 it is exact: a positive square means a positive
// distance.
func (q *ringQuery) take(i int, d float64) {
	q.best, q.bestD = i, d
	switch {
	case d == 0:
		q.bestSq = 0
	case d > 1e-150 && d < 1e150:
		q.bestSq = d * d * (1 + 1e-9)
	default:
		q.bestSq = math.Inf(1)
	}
}

// scanAll is the search over every box in index order, for boxes or an end
// the grid cannot place. It compares as scan does, NaN distances included:
// such a box never displaces a best, and a NaN best is never displaced, as
// with closerBox.
func (q *ringQuery) scanAll() {
	for i := range q.boxes {
		if q.skip != nil && q.skip[i] {
			continue
		}
		b := &q.boxes[i]
		if !b.IntersectsLine(q.line) {
			continue
		}
		d := b.DistToPoint(q.end)
		if q.best < 0 || d < q.bestD || d == q.bestD && before(b, &q.boxes[q.best], i, q.best) {
			q.best, q.bestD = i, d
		}
	}
}

// before breaks a distance tie between boxes a (index i) and b (index j):
// closerBox's coordinate order, then the lower index.
func before(a, b *geom.Rect, i, j int) bool {
	if a.Min.X != b.Min.X {
		return a.Min.X < b.Min.X
	}
	if a.Min.Y != b.Min.Y {
		return a.Min.Y < b.Min.Y
	}
	return i < j
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
