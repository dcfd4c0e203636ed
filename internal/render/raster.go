package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"ovhweather/internal/geom"
	"ovhweather/internal/wmap"
)

// WritePNG renders the scene as a rasterized image — the format many other
// operators publish their weather maps in. The paper's Discussion notes
// that for such maps "the techniques developed in this work cannot be
// directly applied": once the boxes, arrows and labels are pixels, the
// flat-SVG scan of Algorithm 1 has nothing to iterate over. This backend
// exists to make that contrast concrete (and testable): the same scene that
// round-trips losslessly through the SVG path is irrecoverable from its
// PNG.
//
// The rasterizer is deliberately simple: filled axis-aligned rectangles for
// boxes, filled triangles for arrows, no text (names and percentages would
// need a font rasterizer, and their absence only strengthens the point).
// scale shrinks the canvas; 0.25 keeps Europe-scale images manageable.
//
//lint:ignore wmlint/deadexport rasterized-map contrast extension (README "Beyond the paper")
func WritePNG(w io.Writer, sc *Scene, m *wmap.Map, scale float64) error {
	if len(m.Links) != len(sc.Links) || len(m.Nodes) != len(sc.Nodes) {
		return fmt.Errorf("render: map does not match scene")
	}
	if scale <= 0 {
		scale = 0.25
	}
	width := int(math.Ceil(sc.Width * scale))
	height := int(math.Ceil(sc.Height * scale))
	if width < 1 || height < 1 {
		return fmt.Errorf("render: degenerate canvas %dx%d", width, height)
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	fill := color.RGBA{245, 245, 245, 255}
	for i := range img.Pix {
		switch i % 4 {
		case 3:
			img.Pix[i] = 255
		default:
			img.Pix[i] = fill.R
		}
	}

	for i := range sc.Links {
		pl := &sc.Links[i]
		drawTriangle(img, pl.ArrowA, scale, colorOf(loadColor(m.Links[i].LoadAB)))
		drawTriangle(img, pl.ArrowB, scale, colorOf(loadColor(m.Links[i].LoadBA)))
		drawRect(img, pl.LabelA.Box, scale, color.RGBA{255, 255, 255, 255})
		drawRect(img, pl.LabelB.Box, scale, color.RGBA{255, 255, 255, 255})
	}
	boxBorder := color.RGBA{60, 60, 60, 255}
	for i := range sc.Nodes {
		drawRect(img, sc.Nodes[i].Box, scale, color.RGBA{255, 255, 255, 255})
		drawRectOutline(img, sc.Nodes[i].Box, scale, boxBorder)
	}
	return png.Encode(w, img)
}

// colorOf parses the renderer's #rrggbb palette entries.
func colorOf(hex string) color.RGBA {
	var r, g, b uint8
	fmt.Sscanf(hex, "#%02x%02x%02x", &r, &g, &b)
	return color.RGBA{r, g, b, 255}
}

func drawRect(img *image.RGBA, r geom.Rect, scale float64, c color.RGBA) {
	x0, y0 := int(r.Min.X*scale), int(r.Min.Y*scale)
	x1, y1 := int(r.Max.X*scale), int(r.Max.Y*scale)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if image.Pt(x, y).In(img.Rect) {
				img.SetRGBA(x, y, c)
			}
		}
	}
}

func drawRectOutline(img *image.RGBA, r geom.Rect, scale float64, c color.RGBA) {
	x0, y0 := int(r.Min.X*scale), int(r.Min.Y*scale)
	x1, y1 := int(r.Max.X*scale), int(r.Max.Y*scale)
	for x := x0; x <= x1; x++ {
		setIn(img, x, y0, c)
		setIn(img, x, y1, c)
	}
	for y := y0; y <= y1; y++ {
		setIn(img, x0, y, c)
		setIn(img, x1, y, c)
	}
}

func setIn(img *image.RGBA, x, y int, c color.RGBA) {
	if image.Pt(x, y).In(img.Rect) {
		img.SetRGBA(x, y, c)
	}
}

// drawTriangle fills an arrow polygon (first three vertices) using the
// half-plane test over its bounding box.
func drawTriangle(img *image.RGBA, pg geom.Polygon, scale float64, c color.RGBA) {
	if len(pg) < 3 {
		return
	}
	a := geom.Pt(pg[0].X*scale, pg[0].Y*scale)
	b := geom.Pt(pg[1].X*scale, pg[1].Y*scale)
	d := geom.Pt(pg[2].X*scale, pg[2].Y*scale)
	minX := int(math.Floor(math.Min(a.X, math.Min(b.X, d.X))))
	maxX := int(math.Ceil(math.Max(a.X, math.Max(b.X, d.X))))
	minY := int(math.Floor(math.Min(a.Y, math.Min(b.Y, d.Y))))
	maxY := int(math.Ceil(math.Max(a.Y, math.Max(b.Y, d.Y))))
	edge := func(p, q, r geom.Point) float64 {
		return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			p := geom.Pt(float64(x)+0.5, float64(y)+0.5)
			e0, e1, e2 := edge(a, b, p), edge(b, d, p), edge(d, a, p)
			if (e0 >= 0 && e1 >= 0 && e2 >= 0) || (e0 <= 0 && e1 <= 0 && e2 <= 0) {
				setIn(img, x, y, c)
			}
		}
	}
}
