package extract

import (
	"strings"
	"testing"
	"time"

	"ovhweather/internal/geom"
	"ovhweather/internal/wmap"
)

// buildScan assembles a hand-crafted scan result with two routers and one
// link whose geometry is fully under test control.
func buildScan() *ScanResult {
	return &ScanResult{
		Routers: []RawRouter{
			{Name: "fra-r1", Box: geom.RectFromXYWH(10, 10, 60, 18)},
			{Name: "RBX-PEER", Box: geom.RectFromXYWH(300, 10, 70, 18)},
		},
		Links: []RawLink{{
			// Arrow bases at (69, 19) and (301, 19): inside each box edge.
			ArrowA: geom.Polygon{geom.Pt(69, 17), geom.Pt(69, 21), geom.Pt(180, 19)},
			ArrowB: geom.Polygon{geom.Pt(301, 17), geom.Pt(301, 21), geom.Pt(190, 19)},
			Loads:  [2]wmap.Load{42, 9},
		}},
		Labels: []RawLabel{
			{Box: geom.RectFromXYWH(74, 15, 10, 8), Text: "#1"},
			{Box: geom.RectFromXYWH(286, 15, 10, 8), Text: "#2"},
		},
	}
}

func TestAttributeBasic(t *testing.T) {
	at := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	m, err := Attribute(buildScan(), wmap.Europe, at, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != wmap.Europe || !m.Time.Equal(at) {
		t.Errorf("identity: %s @ %s", m.ID, m.Time)
	}
	if len(m.Links) != 1 {
		t.Fatalf("links = %+v", m.Links)
	}
	l := m.Links[0]
	if l.A != "fra-r1" || l.B != "RBX-PEER" {
		t.Errorf("endpoints = %q, %q", l.A, l.B)
	}
	if l.LabelA != "#1" || l.LabelB != "#2" {
		t.Errorf("labels = %q, %q", l.LabelA, l.LabelB)
	}
	if l.LoadAB != 42 || l.LoadBA != 9 {
		t.Errorf("loads = %v, %v", l.LoadAB, l.LoadBA)
	}
	if l.Internal() {
		t.Error("router-peering link should be external")
	}
	// Node kinds inferred from the name case.
	kinds := map[string]wmap.NodeKind{}
	for _, n := range m.Nodes {
		kinds[n.Name] = n.Kind
	}
	if k := kinds["fra-r1"]; k != wmap.Router {
		t.Errorf("fra-r1 kind = %v", k)
	}
	if k := kinds["RBX-PEER"]; k != wmap.Peering {
		t.Errorf("RBX-PEER kind = %v", k)
	}
}

func TestAttributeLabelConsumedOnce(t *testing.T) {
	// Two parallel links; the second link's geometry is offset so each has
	// its own pair of labels, but all four label texts are identical — the
	// VODAFONE case. Consumption (Algorithm 2 line 9) must attribute all
	// four distinct boxes despite equal texts.
	res := buildScan()
	res.Links[0].ArrowA = geom.Polygon{geom.Pt(69, 13), geom.Pt(69, 17), geom.Pt(180, 15)}
	res.Links[0].ArrowB = geom.Polygon{geom.Pt(301, 13), geom.Pt(301, 17), geom.Pt(190, 15)}
	res.Links = append(res.Links, RawLink{
		ArrowA: geom.Polygon{geom.Pt(69, 21), geom.Pt(69, 25), geom.Pt(180, 23)},
		ArrowB: geom.Polygon{geom.Pt(301, 21), geom.Pt(301, 25), geom.Pt(190, 23)},
		Loads:  [2]wmap.Load{10, 11},
	})
	res.Labels = []RawLabel{
		{Box: geom.RectFromXYWH(74, 11, 10, 8), Text: "#1"},
		{Box: geom.RectFromXYWH(286, 11, 10, 8), Text: "#1"},
		{Box: geom.RectFromXYWH(74, 19, 10, 8), Text: "#1"},
		{Box: geom.RectFromXYWH(286, 19, 10, 8), Text: "#1"},
	}
	m, err := Attribute(res, wmap.Europe, time.Time{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 2 {
		t.Fatalf("links = %+v", m.Links)
	}
	for i, l := range m.Links {
		if l.LabelA != "#1" || l.LabelB != "#1" {
			t.Errorf("link %d labels = %q, %q", i, l.LabelA, l.LabelB)
		}
	}
}

func TestAttributeErrors(t *testing.T) {
	at := time.Time{}
	opt := DefaultOptions()

	t.Run("no router on line", func(t *testing.T) {
		res := buildScan()
		res.Routers[1].Box = geom.RectFromXYWH(300, 500, 70, 18) // moved away
		if _, err := Attribute(res, wmap.Europe, at, opt); err == nil {
			t.Error("expected attribution failure")
		}
	})
	t.Run("both ends same router", func(t *testing.T) {
		res := buildScan()
		// Shrink the link so both bases are inside fra-r1's box.
		res.Links[0].ArrowA = geom.Polygon{geom.Pt(12, 17), geom.Pt(12, 21), geom.Pt(30, 19)}
		res.Links[0].ArrowB = geom.Polygon{geom.Pt(60, 17), geom.Pt(60, 21), geom.Pt(40, 19)}
		lenient := opt
		lenient.RequireLabels = false
		_, err := Attribute(res, wmap.Europe, at, lenient)
		if err == nil || !strings.Contains(err.Error(), "both ends") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("label beyond threshold", func(t *testing.T) {
		res := buildScan()
		res.Labels[0].Box = geom.RectFromXYWH(150, 15, 10, 8) // mid-link
		_, err := Attribute(res, wmap.Europe, at, opt)
		if err == nil || !strings.Contains(err.Error(), "beyond threshold") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing label", func(t *testing.T) {
		res := buildScan()
		res.Labels = res.Labels[:1]
		if _, err := Attribute(res, wmap.Europe, at, opt); err == nil {
			t.Error("expected missing-label failure")
		}
	})
	t.Run("isolated router", func(t *testing.T) {
		res := buildScan()
		res.Routers = append(res.Routers, RawRouter{Name: "lonely-r9", Box: geom.RectFromXYWH(600, 600, 60, 18)})
		_, err := Attribute(res, wmap.Europe, at, opt)
		if err == nil || !strings.Contains(err.Error(), "not attributed any link") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("degenerate bases", func(t *testing.T) {
		res := buildScan()
		res.Links[0].ArrowB = res.Links[0].ArrowA
		if _, err := Attribute(res, wmap.Europe, at, opt); err == nil {
			t.Error("expected coinciding-bases failure")
		}
	})
}

func TestAttributeLenientOptions(t *testing.T) {
	res := buildScan()
	res.Labels = nil // no labels at all
	opt := Options{LabelThreshold: 40, RequireLabels: false, RequireConnected: true}
	m, err := Attribute(res, wmap.Europe, time.Time{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Links[0].LabelA != "" || m.Links[0].LabelB != "" {
		t.Errorf("labels should be empty: %+v", m.Links[0])
	}

	res = buildScan()
	res.Routers = append(res.Routers, RawRouter{Name: "lonely-r9", Box: geom.RectFromXYWH(600, 600, 60, 18)})
	opt = Options{LabelThreshold: 40, RequireLabels: true, RequireConnected: false}
	if _, err := Attribute(res, wmap.Europe, time.Time{}, opt); err != nil {
		t.Errorf("lenient connectivity should pass: %v", err)
	}
}

func TestAttributeClosestRouterWins(t *testing.T) {
	// A third router's box also intersects the link line, farther along;
	// the closest to each end must win.
	res := buildScan()
	res.Routers = append(res.Routers, RawRouter{Name: "mid-r5", Box: geom.RectFromXYWH(150, 12, 40, 14)})
	// The middle box must attach to something for RequireConnected; give it
	// a link of its own, displaced vertically.
	res.Links = append(res.Links, RawLink{
		ArrowA: geom.Polygon{geom.Pt(168, 24), geom.Pt(172, 24), geom.Pt(170, 40)},
		ArrowB: geom.Polygon{geom.Pt(65, 26), geom.Pt(69, 26), geom.Pt(67, 45)},
		Loads:  [2]wmap.Load{1, 2},
	})
	m, err := Attribute(res, wmap.Europe, time.Time{}, Options{LabelThreshold: 40, RequireLabels: false, RequireConnected: false})
	if err != nil {
		t.Fatal(err)
	}
	l := m.Links[0]
	if l.A != "fra-r1" || l.B != "RBX-PEER" {
		t.Errorf("middle box captured an end: %q -- %q", l.A, l.B)
	}
}

func TestExtractSVGEndToEnd(t *testing.T) {
	svgDoc := doc(routerFRA, routerRBX, linkFragment)
	m, err := ExtractSVG(strings.NewReader(svgDoc), wmap.Europe, time.Time{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 1 || m.Links[0].A != "fra-r1" || m.Links[0].B != "rbx-r1" {
		t.Errorf("extracted = %+v", m.Links)
	}
}

func TestMarshalYAMLDeterministic(t *testing.T) {
	m := &wmap.Map{
		ID:   wmap.World,
		Time: time.Date(2021, 5, 1, 10, 5, 0, 0, time.UTC),
		Nodes: []wmap.Node{
			{Name: "fra-r1", Kind: wmap.Router},
			{Name: "nyc-r1", Kind: wmap.Router},
		},
		Links: []wmap.Link{{A: "fra-r1", B: "nyc-r1", LabelA: "#1", LabelB: "#1", LoadAB: 30, LoadBA: 20}},
	}
	a, err := MarshalYAML(m)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MarshalYAML(m)
	if string(a) != string(b) {
		t.Error("MarshalYAML not deterministic")
	}
	if !strings.Contains(string(a), "map: world") {
		t.Errorf("missing map id:\n%s", a)
	}
}

func TestUnmarshalYAMLErrors(t *testing.T) {
	bad := []string{
		"",
		"- a\n- b\n",
		"map: europe\n",
		"map: europe\ntimestamp: notatime\nnodes: []\nlinks: []\n",
		"map: europe\ntimestamp: 2021-05-01T10:05:00Z\nnodes:\n  - name: x\nlinks: []\n",
		"map: europe\ntimestamp: 2021-05-01T10:05:00Z\nnodes: []\nlinks:\n  - a: x\n",
		"map: europe\ntimestamp: 2021-05-01T10:05:00Z\nnodes: []\nlinks:\n  - a: x\n    b: y\n    label_a: \"#1\"\n    label_b: \"#1\"\n    load_ab: 200\n    load_ba: 1\n",
	}
	for i, doc := range bad {
		if _, err := UnmarshalYAML([]byte(doc)); err == nil {
			t.Errorf("case %d should fail:\n%s", i, doc)
		}
	}
}

// The pruned candidate search must agree with the paper's literal
// exhaustive formulation on a full-scale document.
func TestPrunedMatchesExhaustive(t *testing.T) {
	res := buildScan()
	fast, err := Attribute(res, wmap.Europe, time.Time{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slow := DefaultOptions()
	slow.Exhaustive = true
	ex, err := Attribute(res, wmap.Europe, time.Time{}, slow)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Links) != len(ex.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(fast.Links), len(ex.Links))
	}
	for i := range fast.Links {
		if fast.Links[i] != ex.Links[i] {
			t.Errorf("link %d differs: %+v vs %+v", i, fast.Links[i], ex.Links[i])
		}
	}
}
