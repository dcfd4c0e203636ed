package extract

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ovhweather/internal/geom"
)

// bruteClosest is the reference implementation: scan all boxes, keep the
// closest intersecting one under the closerBox ordering.
func bruteClosest(boxes []geom.Rect, line geom.Line, end geom.Point, skip []bool) int {
	best := -1
	for i := range boxes {
		if skip != nil && skip[i] {
			continue
		}
		if !boxes[i].IntersectsLine(line) {
			continue
		}
		if best < 0 || closerBox(end, boxes[i], boxes[best]) {
			best = i
		}
	}
	return best
}

// Property: the grid index agrees with brute force on random box fields and
// random query lines, including skip masks.
func TestBoxIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nBoxes uint8, cellExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nBoxes)%60 + 1
		boxes := make([]geom.Rect, n)
		for i := range boxes {
			boxes[i] = geom.RectFromXYWH(
				rng.Float64()*900, rng.Float64()*700,
				2+rng.Float64()*120, 2+rng.Float64()*60)
		}
		cell := []float64{16, 64, 300}[int(cellExp)%3]
		idx := newBoxIndex(boxes, cell)
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = rng.Float64() < 0.3
		}
		for q := 0; q < 10; q++ {
			a := geom.Pt(rng.Float64()*1000-50, rng.Float64()*800-50)
			b := geom.Pt(rng.Float64()*1000-50, rng.Float64()*800-50)
			if a.Eq(b) {
				continue
			}
			line := geom.LineThrough(a, b)
			for _, end := range []geom.Point{a, b} {
				var mask []bool
				if q%2 == 0 {
					mask = skip
				}
				want := bruteClosest(boxes, line, end, mask)
				got := idx.closestIntersecting(line, end, mask)
				if got != want {
					t.Logf("seed=%d n=%d cell=%v end=%v: got %d want %d", seed, n, cell, end, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBoxIndexEmpty(t *testing.T) {
	idx := newBoxIndex(nil, 64)
	line := geom.LineThrough(geom.Pt(0, 0), geom.Pt(1, 1))
	if got := idx.closestIntersecting(line, geom.Pt(0, 0), nil); got != -1 {
		t.Errorf("empty index returned %d", got)
	}
}

func TestBoxIndexAllSkipped(t *testing.T) {
	boxes := []geom.Rect{geom.RectFromXYWH(0, 0, 10, 10)}
	idx := newBoxIndex(boxes, 64)
	line := geom.LineThrough(geom.Pt(-5, 5), geom.Pt(20, 5))
	if got := idx.closestIntersecting(line, geom.Pt(0, 5), []bool{true}); got != -1 {
		t.Errorf("skipped-only index returned %d", got)
	}
}

func TestBoxIndexFarQuery(t *testing.T) {
	// A query whose end is many rings away from the only box must still
	// find it (maxRadius bound) and terminate.
	boxes := []geom.Rect{geom.RectFromXYWH(5000, 5000, 10, 10)}
	idx := newBoxIndex(boxes, 16)
	line := geom.LineThrough(geom.Pt(0, 5005), geom.Pt(10000, 5005))
	if got := idx.closestIntersecting(line, geom.Pt(0, 5005), nil); got != 0 {
		t.Errorf("far query returned %d", got)
	}
}

func TestBoxIndexTieBreak(t *testing.T) {
	// Two boxes both containing the end point (distance 0): the coordinate
	// tie-break must pick the one with the smaller Min.
	boxes := []geom.Rect{
		geom.RectFromXYWH(10, 0, 30, 30),
		geom.RectFromXYWH(0, 0, 30, 30),
	}
	idx := newBoxIndex(boxes, 64)
	end := geom.Pt(20, 15) // inside both
	line := geom.LineThrough(end, geom.Pt(200, 15))
	want := bruteClosest(boxes, line, end, nil)
	got := idx.closestIntersecting(line, end, nil)
	if got != want || got != 1 {
		t.Errorf("tie-break: got %d, brute %d, want 1", got, want)
	}
}

// Boxes sharing Min at one distance tie under closerBox; a linear scan
// keeps the first. The index must too, whatever cell it meets them in
// first: here the tall box 3 also sits in a cell the ring reaches before
// the boxes' common cell (a case FuzzBoxIndexDifferential found).
func TestBoxIndexFullTieTakesLowestIndex(t *testing.T) {
	small := geom.Rect{Min: geom.Pt(192, 192), Max: geom.Pt(192.000000048, 192.000000048)}
	tall := geom.Rect{Min: geom.Pt(192, 192), Max: geom.Pt(192.000000048, 454)}
	boxes := []geom.Rect{small, small, small, tall, small}
	end := geom.Pt(math.Nextafter(192, 0), 192)
	line := geom.LineThrough(end, geom.Pt(end.X+1, 192))
	if got := newBoxIndex(boxes, 16).closestIntersecting(line, end, nil); got != 0 {
		t.Errorf("got %d, want 0 (brute force %d)", got, bruteClosest(boxes, line, end, nil))
	}
}

func TestBoxIndexNegativeCoordinates(t *testing.T) {
	boxes := []geom.Rect{geom.RectFromXYWH(-500, -400, 40, 20)}
	idx := newBoxIndex(boxes, 64)
	line := geom.LineThrough(geom.Pt(-480, -390), geom.Pt(100, -390))
	if got := idx.closestIntersecting(line, geom.Pt(-480, -390), nil); got != 0 {
		t.Errorf("negative-coordinate query returned %d", got)
	}
}

func TestBoxIndexRingBoundRegression(t *testing.T) {
	// Regression for the off-by-one stop bound: a mediocre candidate in the
	// end's own cell must not stop the search before a better box in ring 1
	// is examined. Box 0 intersects the line at ~42px from the end; box 1
	// (in the neighbouring cell, >cell away in index terms but closer in
	// distance) is at ~30px.
	cell := 64.0
	boxes := []geom.Rect{
		geom.RectFromXYWH(42, -5, 10, 10),  // same cell as end, dist ~42
		geom.RectFromXYWH(-40, -5, 10, 10), // previous cell, dist 30
	}
	idx := newBoxIndex(boxes, cell)
	end := geom.Pt(0, 0)
	line := geom.LineThrough(geom.Pt(-100, 0), geom.Pt(100, 0))
	want := bruteClosest(boxes, line, end, nil)
	if want != 1 {
		t.Fatalf("test setup wrong: brute force = %d", want)
	}
	if got := idx.closestIntersecting(line, end, nil); got != 1 {
		t.Errorf("ring bound regression: got %d, want 1", got)
	}
}

func TestBoxIndexLargeBoxSpanningManyCells(t *testing.T) {
	// One giant box spanning dozens of cells plus small boxes; duplicate
	// candidate evaluation across cells must not corrupt the result.
	boxes := []geom.Rect{
		geom.RectFromXYWH(0, 0, 1000, 500),
		geom.RectFromXYWH(100, 100, 10, 10),
	}
	idx := newBoxIndex(boxes, 32)
	end := geom.Pt(105, 105)
	line := geom.LineThrough(end, geom.Pt(900, 400))
	want := bruteClosest(boxes, line, end, nil)
	got := idx.closestIntersecting(line, end, nil)
	if got != want {
		t.Errorf("got %d want %d", got, want)
	}
}

// A box the grid cannot place (a NaN, an infinite or a far-out coordinate,
// as a malformed document can carry) makes the index linear, and an end
// it cannot place is answered linearly; either way the answer is brute
// force's, and a query that matches nothing ends.
func TestBoxIndexUnplaceable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	line := geom.LineThrough(geom.Pt(-100, 5), geom.Pt(100, 5))
	miss := geom.LineThrough(geom.Pt(-100, 5000), geom.Pt(100, 5000))
	for _, odd := range []geom.Rect{
		geom.RectFromXYWH(nan, 0, 10, 10),
		geom.RectFromXYWH(0, 0, nan, 10),
		geom.RectFromXYWH(inf, 0, 10, 10),
		geom.RectFromXYWH(-inf, 0, 10, 10),
		geom.RectFromXYWH(1e300, 0, 10, 10),
	} {
		boxes := []geom.Rect{geom.RectFromXYWH(0, 0, 10, 10), odd, geom.RectFromXYWH(30, 0, 10, 10)}
		idx := newBoxIndex(boxes, 64)
		for _, end := range []geom.Point{geom.Pt(5, 5), geom.Pt(35, 5), geom.Pt(-50, 5)} {
			for _, l := range []geom.Line{line, miss} {
				if got, want := idx.closestIntersecting(l, end, nil), bruteClosest(boxes, l, end, nil); got != want {
					t.Errorf("odd box %v, end %v, line %v: got %d, want %d", odd, end, l, got, want)
				}
			}
		}
	}
	boxes := []geom.Rect{geom.RectFromXYWH(0, 0, 10, 10), geom.RectFromXYWH(30, 0, 10, 10)}
	idx := newBoxIndex(boxes, 64)
	for _, end := range []geom.Point{geom.Pt(nan, 5), geom.Pt(inf, 5), geom.Pt(5, -1e300)} {
		if got, want := idx.closestIntersecting(line, end, nil), bruteClosest(boxes, line, end, nil); got != want {
			t.Errorf("end %v: got %d, want %d", end, got, want)
		}
	}
}

// gridCell bounds the grid by the number of boxes, whatever the canvas.
func TestGridCellBoundsTheGrid(t *testing.T) {
	boxes := []geom.Rect{
		geom.RectFromXYWH(0, 0, 10, 10),
		geom.RectFromXYWH(1e12, -1e12, 10, 10),
		geom.RectFromXYWH(-5e6, 0, 1e7, 1e7), // spans the canvas
	}
	cell := gridCell(boxes, 64)
	idx := newBoxIndex(boxes, cell)
	budget := 8*len(boxes) + 256
	if idx.nx*idx.ny > budget || len(idx.items) > budget {
		t.Errorf("cell %v: %dx%d grid, %d items, budget %d", cell, idx.nx, idx.ny, len(idx.items), budget)
	}
	if got := gridCell(boxes[:1], 64); got != 64 {
		t.Errorf("one small box: cell %v, want 64", got)
	}
	line := geom.LineThrough(geom.Pt(0, 5), geom.Pt(1e12, 5))
	if got, want := idx.closestIntersecting(line, geom.Pt(1e12, 5), nil), bruteClosest(boxes, line, geom.Pt(1e12, 5), nil); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

// fuzzInput reads a fuzzer's bytes as small numbers, zeros past the end.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// coord returns a coordinate biased toward what the margin bound can get
// wrong: exact cell lines, one ulp either side of them, shared values and
// negative ones.
func (in *fuzzInput) coord(cell float64, seen []float64) float64 {
	k, v := in.next(), in.next()
	line := float64(int8(v)>>2) * cell // a cell line in [-32, 31] cells
	switch k % 6 {
	case 0:
		return line
	case 1:
		return math.Nextafter(line, math.Inf(1))
	case 2:
		return math.Nextafter(line, math.Inf(-1))
	case 3:
		return line + float64(in.next())/256*cell
	case 4:
		if len(seen) > 0 {
			return seen[int(v)%len(seen)]
		}
		return line
	default: // anywhere within ±4 cells, at 1/8192-cell resolution
		return float64(int16(uint16(v)<<8|uint16(in.next()))) / 4096 * cell
	}
}

// extent returns a box width or height: zero, small, whole cells, many
// cells, or a sliver.
func (in *fuzzInput) extent(cell float64) float64 {
	k, v := in.next(), in.next()
	switch k % 5 {
	case 0:
		return 0
	case 1:
		return float64(v) / 16
	case 2:
		return float64(v%8) * cell
	case 3:
		return float64(v%32)*cell + float64(in.next())/8
	default:
		return float64(v) * 1e-9
	}
}

// FuzzBoxIndexDifferential holds closestIntersecting to bruteClosest on
// fuzzer-built box fields: ends on cell lines and corners and inside boxes,
// boxes with edges on cell lines, zero-width and zero-height boxes,
// negative coordinates, boxes spanning many cells, skip masks and
// axis-parallel lines, at cell sizes 16, 64 and 300 and at the cell
// gridCell picks.
func FuzzBoxIndexDifferential(f *testing.F) {
	f.Add([]byte{1, 8})
	f.Add([]byte{0, 3, 0, 4, 0, 4, 2, 1, 2, 1, 1, 0, 4, 0, 4, 0})
	f.Add([]byte{2, 20, 3, 200, 5, 1, 9, 2, 3, 1, 4, 17, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9})
	f.Add([]byte{1, 39, 1, 0, 2, 255, 3, 7, 9, 4, 12, 0, 0, 2, 2, 1, 5, 5, 250, 3, 0, 1, 8, 0, 16, 2, 3, 4, 0, 0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		cell := []float64{16, 64, 300}[in.next()%3]
		boxes := make([]geom.Rect, int(in.next()%41))
		var seen []float64
		for i := range boxes {
			x, y := in.coord(cell, seen), in.coord(cell, seen)
			boxes[i] = geom.RectFromXYWH(x, y, in.extent(cell), in.extent(cell))
			seen = append(seen, boxes[i].Min.X, boxes[i].Min.Y, boxes[i].Max.X, boxes[i].Max.Y)
		}
		var skip []bool
		if m := in.next(); m%2 == 1 {
			skip = make([]bool, len(boxes))
			for i := range skip {
				skip[i] = in.next()&(m|1) == 0
			}
		}
		indexes := []*boxIndex{newBoxIndex(boxes, cell), newBoxIndex(boxes, gridCell(boxes, cell))}
		for q := 0; q < 12 && len(in) > 0; q++ {
			end := in.point(cell, seen, boxes)
			var other geom.Point
			switch k := in.next(); k % 4 {
			case 0: // horizontal
				other = geom.Pt(end.X+1+float64(k), end.Y)
			case 1: // vertical
				other = geom.Pt(end.X, end.Y-1-float64(k))
			default:
				other = in.point(cell, seen, boxes)
			}
			line := geom.LineThrough(end, other)
			if line.Degenerate() {
				continue
			}
			want := bruteClosest(boxes, line, end, skip)
			for _, idx := range indexes {
				if got := idx.closestIntersecting(line, end, skip); got != want {
					t.Fatalf("cell %v, %d boxes %v, skip %v, end %v, line %v: got %d, want %d",
						idx.cell, len(boxes), boxes, skip, end, line, got, want)
				}
			}
		}
	})
}

// point returns a query point: inside, on a corner of, on an edge of or
// just outside a box, on a cell corner, or anywhere.
func (in *fuzzInput) point(cell float64, seen []float64, boxes []geom.Rect) geom.Point {
	k, v := in.next()%8, in.next()
	if k == 4 {
		return geom.Pt(float64(int8(v)>>2)*cell, float64(int8(in.next())>>2)*cell)
	}
	if len(boxes) > 0 && k < 6 {
		b := boxes[int(v)%len(boxes)]
		switch k {
		case 0:
			return b.Center()
		case 1:
			return b.Min
		case 2:
			return b.Max
		case 3:
			return geom.Pt(b.Max.X, b.Center().Y)
		default:
			return geom.Pt(b.Center().X, b.Min.Y-float64(in.next())/16)
		}
	}
	return geom.Pt(in.coord(cell, seen), in.coord(cell, seen))
}
