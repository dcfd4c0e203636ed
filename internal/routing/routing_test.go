package routing

import (
	"reflect"
	"testing"

	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// diamond builds a-b-d and a-c-d with a spur router e off d and a peering.
func diamond() *wmap.Map {
	return &wmap.Map{
		ID: wmap.Europe,
		Nodes: []wmap.Node{
			{Name: "a-r", Kind: wmap.Router},
			{Name: "b-r", Kind: wmap.Router},
			{Name: "c-r", Kind: wmap.Router},
			{Name: "d-r", Kind: wmap.Router},
			{Name: "e-r", Kind: wmap.Router},
			{Name: "PEER", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "a-r", B: "b-r", LoadAB: 1, LoadBA: 1},
			{A: "a-r", B: "b-r", LoadAB: 2, LoadBA: 2}, // parallel collapses
			{A: "a-r", B: "c-r", LoadAB: 1, LoadBA: 1},
			{A: "b-r", B: "d-r", LoadAB: 1, LoadBA: 1},
			{A: "c-r", B: "d-r", LoadAB: 1, LoadBA: 1},
			{A: "d-r", B: "e-r", LoadAB: 1, LoadBA: 1},
			{A: "d-r", B: "PEER", LoadAB: 1, LoadBA: 1}, // external: excluded
		},
	}
}

// degree returns the number of distinct neighbours of the named router.
func degree(g *Graph, name string) int { return len(g.adj[g.index[name]]) }

func TestGraphBasics(t *testing.T) {
	g := NewGraph(diamond())
	if len(g.nodes) != 5 {
		t.Fatalf("routers = %v", g.nodes)
	}
	if d := degree(g, "a-r"); d != 2 {
		t.Errorf("deg(a) = %d, want 2 (parallels collapse)", d)
	}
	if d := degree(g, "d-r"); d != 3 {
		t.Errorf("deg(d) = %d, want 3 (peering excluded)", d)
	}
}

func TestDistances(t *testing.T) {
	g := NewGraph(diamond())
	dist, err := g.Distances("a-r")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a-r": 0, "b-r": 1, "c-r": 1, "d-r": 2, "e-r": 3}
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("dist = %v", dist)
	}
	if _, err := g.Distances("ghost"); err == nil {
		t.Error("unknown source should error")
	}
}

func TestDistancesUnreachable(t *testing.T) {
	m := diamond()
	m.Nodes = append(m.Nodes, wmap.Node{Name: "island-r", Kind: wmap.Router},
		wmap.Node{Name: "island2-r", Kind: wmap.Router})
	m.Links = append(m.Links, wmap.Link{A: "island-r", B: "island2-r"})
	g := NewGraph(m)
	dist, err := g.Distances("a-r")
	if err != nil {
		t.Fatal(err)
	}
	if dist["island-r"] != -1 {
		t.Errorf("island distance = %d, want -1", dist["island-r"])
	}
}

func TestECMPPaths(t *testing.T) {
	g := NewGraph(diamond())
	paths, err := g.ECMPPaths("a-r", "d-r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	want0 := Path{"a-r", "b-r", "d-r"}
	want1 := Path{"a-r", "c-r", "d-r"}
	if !reflect.DeepEqual(paths[0], want0) || !reflect.DeepEqual(paths[1], want1) {
		t.Errorf("paths = %v", paths)
	}
	if paths[0].Hops() != 2 {
		t.Errorf("hops = %d", paths[0].Hops())
	}

	// Cap enumeration.
	one, err := g.ECMPPaths("a-r", "d-r", 1)
	if err != nil || len(one) != 1 {
		t.Errorf("capped = %v, %v", one, err)
	}

	// Self path.
	self, err := g.ECMPPaths("a-r", "a-r", 0)
	if err != nil || len(self) != 1 || self[0].Hops() != 0 {
		t.Errorf("self = %v, %v", self, err)
	}
}

func TestTraceDeterministic(t *testing.T) {
	g := NewGraph(diamond())
	p1, err := g.Trace("a-r", "e-r")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := g.Trace("a-r", "e-r")
	if !reflect.DeepEqual(p1, p2) {
		t.Error("trace not deterministic")
	}
	if p1.Hops() != 3 {
		t.Errorf("trace = %v", p1)
	}
	if _, err := g.Trace("a-r", "ghost"); err == nil {
		t.Error("unknown destination should error")
	}
}

// The Europe backbone is fully connected, with real
// ECMP diversity between core routers, the path diversity Section 5 points
// at ("the network topology thus presents path diversity among the core
// routers").
func TestEuropeBackboneConnectivityAndDiversity(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MapAt(wmap.Europe, sc.End)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(m)
	if len(g.nodes) != 113 {
		t.Fatalf("routers = %d", len(g.nodes))
	}
	dist, err := g.Distances(g.nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	for n, d := range dist {
		if d < 0 {
			t.Fatalf("router %s unreachable", n)
		}
	}

	// Among the 20 highest-degree routers, most pairs have ECMP diversity.
	routers := g.nodes
	type byDeg struct {
		name string
		deg  int
	}
	var ranked []byDeg
	for _, r := range routers {
		ranked = append(ranked, byDeg{r, degree(g, r)})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].deg > ranked[i].deg {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	diverse, pairs := 0, 0
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			paths, err := g.ECMPPaths(ranked[i].name, ranked[j].name, 8)
			if err != nil {
				t.Fatal(err)
			}
			pairs++
			if len(paths) > 1 {
				diverse++
			}
		}
	}
	if float64(diverse)/float64(pairs) < 0.3 {
		t.Errorf("ECMP diversity among core pairs = %d/%d, expected path diversity", diverse, pairs)
	}
}
