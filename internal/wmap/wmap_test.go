package wmap

import (
	"strings"
	"testing"
)

func testMap() *Map {
	return &Map{
		ID: Europe,
		Nodes: []Node{
			{Name: "fra-fr5-pb6-nc5", Kind: Router},
			{Name: "rbx-g1-nc5", Kind: Router},
			{Name: "ARELION", Kind: Peering},
			{Name: "VODAFONE", Kind: Peering},
		},
		Links: []Link{
			{A: "fra-fr5-pb6-nc5", B: "ARELION", LabelA: "#1", LabelB: "#1", LoadAB: 42, LoadBA: 9},
			{A: "fra-fr5-pb6-nc5", B: "rbx-g1-nc5", LabelA: "#1", LabelB: "#1", LoadAB: 30, LoadBA: 28},
			{A: "fra-fr5-pb6-nc5", B: "rbx-g1-nc5", LabelA: "#2", LabelB: "#2", LoadAB: 31, LoadBA: 27},
			{A: "fra-fr5-pb6-nc5", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 12, LoadBA: 5},
			{A: "fra-fr5-pb6-nc5", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 14, LoadBA: 6},
		},
	}
}

func TestMapIDs(t *testing.T) {
	if len(AllMaps()) != 4 {
		t.Fatalf("AllMaps = %v", AllMaps())
	}
	for _, id := range AllMaps() {
		if id.Title() == string(id) && id != Europe && id != World {
			t.Errorf("Title(%s) fell through", id)
		}
		back, err := ParseMapID(id.Title())
		if err != nil || back != id {
			t.Errorf("ParseMapID(%q) = %v, %v", id.Title(), back, err)
		}
	}
	if _, err := ParseMapID("atlantis"); err == nil {
		t.Error("ParseMapID(atlantis) should fail")
	}
	if id, _ := ParseMapID("APAC"); id != AsiaPacific {
		t.Errorf("APAC alias = %v", id)
	}
}

func TestKindOfName(t *testing.T) {
	cases := []struct {
		name string
		want NodeKind
	}{
		{"fra-fr5-pb6-nc5", Router},
		{"ARELION", Peering},
		{"AMS-IX", Peering},
		{"gra-g1", Router},
		{"123", Peering}, // no letters: treated as peering
	}
	for _, c := range cases {
		if got := KindOfName(c.name); got != c.want {
			t.Errorf("KindOfName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLoad(t *testing.T) {
	if !Load(0).Valid() || !Load(100).Valid() {
		t.Error("bounds should be valid")
	}
	if Load(-1).Valid() || Load(101).Valid() {
		t.Error("out of range should be invalid")
	}
	if Load(42).String() != "42 %" {
		t.Errorf("String = %q", Load(42).String())
	}
}

func TestLinkInternalAndEndpoints(t *testing.T) {
	internal := Link{A: "fra-a", B: "rbx-b"}
	if !internal.Internal() {
		t.Error("router-router link should be internal")
	}
	external := Link{A: "fra-a", B: "ARELION"}
	if external.Internal() {
		t.Error("router-peering link should be external")
	}
	a, b := Link{A: "zzz", B: "aaa"}.Endpoints()
	if a != "aaa" || b != "zzz" {
		t.Errorf("Endpoints = %q, %q", a, b)
	}
}

func TestMapAccessors(t *testing.T) {
	m := testMap()
	if got := len(m.Routers()); got != 2 {
		t.Errorf("Routers = %d", got)
	}
	if got := len(m.InternalLinks()); got != 2 {
		t.Errorf("InternalLinks = %d", got)
	}
	if got := len(m.ExternalLinks()); got != 3 {
		t.Errorf("ExternalLinks = %d", got)
	}
}

func TestDegree(t *testing.T) {
	m := testMap()
	if got := m.Degree("fra-fr5-pb6-nc5"); got != 5 {
		t.Errorf("Degree(fra) = %d, want 5 (parallels counted)", got)
	}
	if got := m.Degree("rbx-g1-nc5"); got != 2 {
		t.Errorf("Degree(rbx) = %d, want 2", got)
	}
	if got := m.Degree("ghost"); got != 0 {
		t.Errorf("Degree(ghost) = %d", got)
	}
	ds := m.RouterDegrees()
	if len(ds) != 2 || ds[0] != 5 || ds[1] != 2 {
		t.Errorf("RouterDegrees = %v (sorted by name: fra first)", ds)
	}
}

func TestParallelGroups(t *testing.T) {
	m := testMap()
	groups := m.ParallelGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d: %+v", len(groups), groups)
	}
	// Lexicographic group order: ARELION pair, VODAFONE pair, fra-rbx pair.
	if groups[0].A != "ARELION" || len(groups[0].Links) != 1 {
		t.Errorf("group0 = %+v", groups[0])
	}
	if groups[1].A != "VODAFONE" || len(groups[1].Links) != 2 {
		t.Errorf("group1 = %+v", groups[1])
	}
	if groups[2].A != "fra-fr5-pb6-nc5" || groups[2].B != "rbx-g1-nc5" || len(groups[2].Links) != 2 {
		t.Errorf("group2 = %+v", groups[2])
	}
}

func TestDirectedLoads(t *testing.T) {
	m := testMap()
	groups := m.ParallelGroups()
	vod := groups[1] // VODAFONE / fra pair
	fromRouter := vod.DirectedLoads("fra-fr5-pb6-nc5")
	if len(fromRouter) != 2 || fromRouter[0] != 12 || fromRouter[1] != 14 {
		t.Errorf("egress loads = %v", fromRouter)
	}
	fromPeer := vod.DirectedLoads("VODAFONE")
	if len(fromPeer) != 2 || fromPeer[0] != 5 || fromPeer[1] != 6 {
		t.Errorf("ingress loads = %v", fromPeer)
	}
	if got := vod.DirectedLoads("stranger"); len(got) != 0 {
		t.Errorf("unknown endpoint loads = %v", got)
	}
}

func TestMeanParallelism(t *testing.T) {
	m := testMap()
	got := m.MeanParallelism()
	want := (1 + 2 + 2) / 3.0
	if got != want {
		t.Errorf("MeanParallelism = %v, want %v", got, want)
	}
	if (&Map{}).MeanParallelism() != 0 {
		t.Error("empty map parallelism should be 0")
	}
}

func TestSummarize(t *testing.T) {
	m := testMap()
	s := m.Summarize()
	if s.Routers != 2 || s.Internal != 2 || s.External != 3 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestSummarizeAllDeduplicatesRouters(t *testing.T) {
	eu := testMap()
	world := &Map{
		ID: World,
		Nodes: []Node{
			{Name: "fra-fr5-pb6-nc5", Kind: Router}, // shared with Europe
			{Name: "nyc-ny1", Kind: Router},
		},
		Links: []Link{{A: "fra-fr5-pb6-nc5", B: "nyc-ny1", LoadAB: 10, LoadBA: 12}},
	}
	rows, total := SummarizeAll([]*Map{eu, world})
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if total.Routers != 3 {
		t.Errorf("total routers = %d, want 3 (dedup across maps)", total.Routers)
	}
	if total.Internal != 3 || total.External != 3 {
		t.Errorf("total links = %+v", total)
	}
}

func TestClone(t *testing.T) {
	m := testMap()
	c := m.Clone()
	c.Links[0].LoadAB = 99
	c.Nodes[0].Name = "changed"
	if m.Links[0].LoadAB == 99 || m.Nodes[0].Name == "changed" {
		t.Error("Clone is shallow")
	}
}

func TestValidateOK(t *testing.T) {
	if err := testMap().Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mutate func(*Map)) *Map {
		m := testMap()
		mutate(m)
		return m
	}
	cases := []struct {
		name string
		m    *Map
		frag string
	}{
		{"load too high", mk(func(m *Map) { m.Links[0].LoadAB = 101 }), "load out of"},
		{"load negative", mk(func(m *Map) { m.Links[0].LoadBA = -1 }), "load out of"},
		{"self link", mk(func(m *Map) { m.Links[0].B = m.Links[0].A }), "itself"},
		{"unknown node", mk(func(m *Map) { m.Links[0].B = "GHOST" }), "unknown node"},
		{"isolated node", mk(func(m *Map) { m.Nodes = append(m.Nodes, Node{Name: "lonely-r1", Kind: Router}) }), "no link"},
		{"duplicate node", mk(func(m *Map) { m.Nodes = append(m.Nodes, m.Nodes[0]) }), "duplicate"},
		{"empty name", mk(func(m *Map) { m.Nodes[0].Name = "" }), "empty name"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.frag)
		}
	}
}

func TestImbalancesPaperFilters(t *testing.T) {
	m := &Map{
		ID: Europe,
		Nodes: []Node{
			{Name: "a-r1", Kind: Router},
			{Name: "b-r2", Kind: Router},
			{Name: "PEER", Kind: Peering},
		},
		Links: []Link{
			// Internal group with four parallels; one disabled (0%), one at 1%.
			{A: "a-r1", B: "b-r2", LoadAB: 30, LoadBA: 20},
			{A: "a-r1", B: "b-r2", LoadAB: 33, LoadBA: 22},
			{A: "a-r1", B: "b-r2", LoadAB: 0, LoadBA: 0},
			{A: "a-r1", B: "b-r2", LoadAB: 1, LoadBA: 21},
			// External singleton group — removed by MinLinks.
			{A: "a-r1", B: "PEER", LoadAB: 40, LoadBA: 10},
		},
	}
	imbs := NewTopology(nil, m.Links).Imbalances(m.Links, PaperImbalanceOptions())
	if len(imbs) != 2 {
		t.Fatalf("imbalances = %+v", imbs)
	}
	// Direction a→b: loads 30, 33 (0 and 1 filtered) → spread 3.
	// Direction b→a: loads 20, 22, 21 (0 filtered) → spread 2.
	var ab, ba *Imbalance
	for i := range imbs {
		switch imbs[i].From {
		case "a-r1":
			ab = &imbs[i]
		case "b-r2":
			ba = &imbs[i]
		}
	}
	if ab == nil || ab.Spread != 3 || ab.Links != 2 || !ab.Internal {
		t.Errorf("ab = %+v", ab)
	}
	if ba == nil || ba.Spread != 2 || ba.Links != 3 {
		t.Errorf("ba = %+v", ba)
	}
}

func TestImbalancesNoFilters(t *testing.T) {
	m := testMap()
	imbs := NewTopology(nil, m.Links).Imbalances(m.Links, ImbalanceOptions{MinLinks: 1})
	// 3 groups × 2 directions = 6 sets, none filtered.
	if len(imbs) != 6 {
		t.Fatalf("imbalances = %d: %+v", len(imbs), imbs)
	}
	for _, im := range imbs {
		if im.Spread < 0 {
			t.Errorf("negative spread: %+v", im)
		}
	}
}

func TestImbalanceSingletonAfterFilterDropped(t *testing.T) {
	m := &Map{
		ID:    Europe,
		Nodes: []Node{{Name: "a-r1", Kind: Router}, {Name: "b-r2", Kind: Router}},
		Links: []Link{
			{A: "a-r1", B: "b-r2", LoadAB: 30, LoadBA: 0},
			{A: "a-r1", B: "b-r2", LoadAB: 0, LoadBA: 0},
		},
	}
	imbs := NewTopology(nil, m.Links).Imbalances(m.Links, PaperImbalanceOptions())
	if len(imbs) != 0 {
		t.Errorf("one remaining link should be dropped: %+v", imbs)
	}
}

func TestCompareDiff(t *testing.T) {
	old := testMap()
	next := old.Clone()
	// Add a router with a link, remove VODAFONE's second parallel, change a
	// load.
	next.Nodes = append(next.Nodes, Node{Name: "par-p1", Kind: Router})
	next.Links = append(next.Links, Link{A: "par-p1", B: "rbx-g1-nc5", LabelA: "#1", LabelB: "#1", LoadAB: 3, LoadBA: 4})
	next.Links = append(next.Links[:4], next.Links[5:]...) // drop one VODAFONE parallel
	next.Links[0].LoadAB = 77

	d := Compare(old, next)
	if d.Empty() {
		t.Fatal("diff should not be empty")
	}
	if len(d.NodesAdded) != 1 || d.NodesAdded[0].Name != "par-p1" {
		t.Errorf("NodesAdded = %+v", d.NodesAdded)
	}
	if len(d.NodesRemoved) != 0 {
		t.Errorf("NodesRemoved = %+v", d.NodesRemoved)
	}
	if len(d.LinksAdded) != 1 || d.LinksAdded[0].Count != 1 || d.LinksAdded[0].A != "par-p1" {
		t.Errorf("LinksAdded = %+v", d.LinksAdded)
	}
	if len(d.LinksRemoved) != 1 || d.LinksRemoved[0].Count != 1 {
		t.Errorf("LinksRemoved = %+v", d.LinksRemoved)
	}
	if d.LoadChanges != 1 {
		t.Errorf("LoadChanges = %d, want 1", d.LoadChanges)
	}
}

func TestCompareIdentical(t *testing.T) {
	m := testMap()
	d := Compare(m, m.Clone())
	if !d.Empty() || d.LoadChanges != 0 {
		t.Errorf("identical maps: %+v", d)
	}
}

func TestCompareOrientationInsensitive(t *testing.T) {
	old := testMap()
	next := old.Clone()
	// Reverse a link's orientation: same physical link, no diff.
	l := next.Links[1]
	next.Links[1] = Link{A: l.B, B: l.A, LabelA: l.LabelB, LabelB: l.LabelA, LoadAB: l.LoadBA, LoadBA: l.LoadAB}
	d := Compare(old, next)
	if !d.Empty() {
		t.Errorf("reversed link should not diff: %+v", d)
	}
	if d.LoadChanges != 0 {
		t.Errorf("reversed link loads should match: %d", d.LoadChanges)
	}
}

// TestCompareDeltaOrder requires link deltas that differ only in LabelB
// to come out in LabelB order on every call: Compare collects them by
// ranging over a map, so any tie left to the sort shows as random order.
func TestCompareDeltaOrder(t *testing.T) {
	small := &Map{Nodes: []Node{{Name: "a", Kind: Router}, {Name: "b", Kind: Router}}}
	big := small.Clone()
	for _, lb := range []string{"r", "p", "q"} {
		big.Links = append(big.Links, Link{A: "a", B: "b", LabelA: "x", LabelB: lb})
	}
	order := func(ds []LinkDelta) string {
		var s string
		for _, d := range ds {
			s += d.LabelB
		}
		return s
	}
	for i := 0; i < 200; i++ {
		if got := order(Compare(small, big).LinksAdded); got != "pqr" {
			t.Fatalf("call %d: LinksAdded in LabelB order %q, want \"pqr\"", i, got)
		}
		if got := order(Compare(big, small).LinksRemoved); got != "pqr" {
			t.Fatalf("call %d: LinksRemoved in LabelB order %q, want \"pqr\"", i, got)
		}
	}
}

func TestLoadColorBands(t *testing.T) {
	for l := Load(0); l <= 100; l++ {
		c := LoadColor(l)
		b, ok := BandOfColor(c)
		if !ok {
			t.Fatalf("LoadColor(%d) = %q not in palette", l, c)
		}
		if l < b.Lo || l > b.Hi {
			t.Fatalf("load %d colored %q but band is [%d, %d]", l, c, b.Lo, b.Hi)
		}
		if !ColorMatchesLoad(c, l) {
			t.Fatalf("ColorMatchesLoad(%q, %d) = false", c, l)
		}
	}
	if _, ok := BandOfColor("#123456"); ok {
		t.Error("foreign color should not match a band")
	}
	if !ColorMatchesLoad("#123456", 50) {
		t.Error("foreign colors must be treated as consistent")
	}
	if ColorMatchesLoad(LoadColor(0), 80) {
		t.Error("gray arrow with 80% load should mismatch")
	}
	if b, _ := BandOfColor("  " + LoadColor(42) + " "); b.Lo > 42 || b.Hi < 42 {
		t.Error("BandOfColor should trim and match case-insensitively")
	}
}
