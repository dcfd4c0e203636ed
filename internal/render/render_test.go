package render

import (
	"bytes"
	"errors"
	"image/color"
	"image/png"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

func smallMap() *wmap.Map {
	return &wmap.Map{
		ID: wmap.Europe,
		Nodes: []wmap.Node{
			{Name: "fra-r1", Kind: wmap.Router},
			{Name: "rbx-r1", Kind: wmap.Router},
			{Name: "ARELION", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "fra-r1", B: "rbx-r1", LabelA: "#1", LabelB: "#1", LoadAB: 30, LoadBA: 28},
			{A: "fra-r1", B: "rbx-r1", LabelA: "#2", LabelB: "#2", LoadAB: 31, LoadBA: 27},
			{A: "fra-r1", B: "ARELION", LabelA: "#1", LabelB: "#1", LoadAB: 42, LoadBA: 9},
		},
	}
}

func TestLayoutBasics(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Nodes) != 3 || len(sc.Links) != 3 {
		t.Fatalf("scene sizes: %d nodes, %d links", len(sc.Nodes), len(sc.Links))
	}
	if sc.Width <= 0 || sc.Height <= 0 {
		t.Errorf("canvas %v x %v", sc.Width, sc.Height)
	}
	// No two node boxes overlap.
	for i := range sc.Nodes {
		for j := i + 1; j < len(sc.Nodes); j++ {
			if sc.Nodes[i].Box.Overlaps(sc.Nodes[j].Box) {
				t.Errorf("boxes %d and %d overlap", i, j)
			}
		}
	}
	// Ports sit inside their own node's box.
	boxOf := map[string]int{}
	for i, n := range sc.Nodes {
		boxOf[n.Node.Name] = i
	}
	for i, pl := range sc.Links {
		if !sc.Nodes[boxOf[pl.Link.A]].Box.Contains(pl.PortA) {
			t.Errorf("link %d: port A outside box", i)
		}
		if !sc.Nodes[boxOf[pl.Link.B]].Box.Contains(pl.PortB) {
			t.Errorf("link %d: port B outside box", i)
		}
	}
}

func TestLayoutDeterministic(t *testing.T) {
	a, err := Layout(smallMap(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Layout(smallMap(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Links {
		if a.Links[i].PortA != b.Links[i].PortA || a.Links[i].PortB != b.Links[i].PortB {
			t.Fatalf("link %d ports differ between runs", i)
		}
	}
}

func TestWriteSVGParsable(t *testing.T) {
	m := smallMap()
	var buf bytes.Buffer
	if err := Render(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	elems, err := svg.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var polys, loads, labels, objects int
	for _, e := range elems {
		switch {
		case e.Tag == svg.TagPolygon:
			polys++
		case e.HasClass("labellink"):
			loads++
		case e.HasClass("node") && e.Tag == svg.TagText:
			labels++
		case e.ClassHasPrefix("object") && e.Tag == svg.TagText:
			objects++
		}
	}
	if polys != 6 || loads != 6 || labels != 6 || objects != 3 {
		t.Errorf("element counts: polys=%d loads=%d labels=%d objects=%d", polys, loads, labels, objects)
	}
}

func TestWriteSVGMismatchedScene(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := smallMap()
	other.Links = other.Links[:1]
	if err := WriteSVG(&bytes.Buffer{}, sc, other); err == nil {
		t.Error("mismatched map should be rejected")
	}
}

func TestSceneCacheReuse(t *testing.T) {
	c := NewSceneCache(Options{})
	m1 := smallMap()
	m2 := smallMap()
	m2.Links[0].LoadAB = 99 // loads differ, topology identical
	s1, err := c.Scene(m1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Scene(m2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("same topology should share a cached scene")
	}
	if c.Len() != 1 {
		t.Errorf("cache len = %d", c.Len())
	}
	m3 := smallMap()
	m3.Links = append(m3.Links, wmap.Link{A: "rbx-r1", B: "ARELION", LabelA: "#1", LabelB: "#1"})
	if _, err := c.Scene(m3); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("cache len after new topology = %d", c.Len())
	}
	c.Evict()
	if c.Len() != 0 {
		t.Errorf("cache len after evict = %d", c.Len())
	}
}

func TestTopologyFingerprint(t *testing.T) {
	a, b := smallMap(), smallMap()
	if TopologyFingerprint(a) != TopologyFingerprint(b) {
		t.Error("identical topologies must share a fingerprint")
	}
	b.Links[0].LoadAB = 77
	if TopologyFingerprint(a) != TopologyFingerprint(b) {
		t.Error("loads must not affect the fingerprint")
	}
	b.Links[0].LabelA = "#9"
	if TopologyFingerprint(a) == TopologyFingerprint(b) {
		t.Error("label change must change the fingerprint")
	}
	c := smallMap()
	c.Nodes[0].Name = "fra-r2"
	c.Links[0].A = "fra-r2"
	c.Links[1].A = "fra-r2"
	c.Links[2].A = "fra-r2"
	if TopologyFingerprint(a) == TopologyFingerprint(c) {
		t.Error("node rename must change the fingerprint")
	}
}

func TestLoadColorBands(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range []wmap.Load{0, 10, 30, 50, 60, 80, 95} {
		seen[loadColor(l)] = true
	}
	if len(seen) != 7 {
		t.Errorf("expected 7 distinct colors, got %d", len(seen))
	}
}

func TestFaultMalformedAttributeBreaksScan(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFaultySVG(&buf, sc, m, FaultMalformedAttribute); err != nil {
		t.Fatal(err)
	}
	if _, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{}); err == nil {
		t.Error("malformed attribute should fail Algorithm 1")
	}
}

func TestFaultMissingRoutersBreaksAttribution(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFaultySVG(&buf, sc, m, FaultMissingRouters); err != nil {
		t.Fatal(err)
	}
	res, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{})
	if err != nil {
		t.Fatalf("scan should survive missing routers: %v", err)
	}
	if len(res.Routers) != 0 {
		t.Fatalf("routers = %d, want 0", len(res.Routers))
	}
	if _, err := extract.Attribute(res, m.ID, time.Time{}, extract.DefaultOptions()); err == nil {
		t.Error("attribution should fail to find intersections")
	}
}

func TestFaultTruncatedBreaksScan(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFaultySVG(&buf, sc, m, FaultTruncated); err != nil {
		t.Fatal(err)
	}
	if _, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{}); err == nil {
		t.Error("truncated document should fail Algorithm 1")
	}
}

func TestFaultNonePassesThrough(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var healthy, none bytes.Buffer
	if err := WriteSVG(&healthy, sc, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteFaultySVG(&none, sc, m, FaultNone); err != nil {
		t.Fatal(err)
	}
	if healthy.String() != none.String() {
		t.Error("FaultNone must render the healthy document")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for _, k := range []FaultKind{FaultNone, FaultMalformedAttribute, FaultMissingRouters, FaultTruncated} {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if FaultKind(99).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

// The Europe-scale layout stays within sane dimensions and renders to a
// document of plausible size (the paper's Europe SVGs average ~780 KiB).
func TestEuropeScaleRender(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MapAt(wmap.Europe, sc.End)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100_000 {
		t.Errorf("Europe SVG only %d bytes; expected a substantial document", buf.Len())
	}
	if !strings.HasPrefix(buf.String(), "<?xml") {
		t.Error("missing XML declaration")
	}
}

func TestFaultShiftedLabelsBreaksThreshold(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFaultySVG(&buf, sc, m, FaultShiftedLabels); err != nil {
		t.Fatal(err)
	}
	res, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{})
	if err != nil {
		t.Fatalf("scan should survive shifted labels: %v", err)
	}
	_, err = extract.Attribute(res, m.ID, time.Time{}, extract.DefaultOptions())
	if err == nil {
		t.Fatal("attribution should reject labels beyond the threshold")
	}
	var attrErr *extract.AttributeError
	if !errors.As(err, &attrErr) {
		t.Errorf("err = %T %v, want AttributeError", err, err)
	}
}

func TestWritePNGProducesImage(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, sc, m, 0.5); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() < 10 || b.Dy() < 10 {
		t.Errorf("image %v too small", b)
	}
	// The image must contain non-background pixels (boxes and arrows).
	distinct := map[color.Color]bool{}
	for y := b.Min.Y; y < b.Max.Y; y += 3 {
		for x := b.Min.X; x < b.Max.X; x += 3 {
			distinct[img.At(x, y)] = true
		}
	}
	if len(distinct) < 3 {
		t.Errorf("image has %d distinct sampled colors; drawing failed", len(distinct))
	}

	// The Discussion's point: the rasterized map is opaque to Algorithm 1.
	if _, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{}); err == nil {
		t.Error("a PNG must not be scannable as a weather-map SVG")
	}
}

func TestWritePNGErrors(t *testing.T) {
	m := smallMap()
	sc, err := Layout(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := smallMap()
	other.Links = other.Links[:1]
	if err := WritePNG(&bytes.Buffer{}, sc, other, 0.5); err == nil {
		t.Error("mismatched map should be rejected")
	}
}
