// Package routing computes paths over weather-map topologies. The paper's
// Discussion proposes correlating traceroute-style measurements with the
// evolution of routing and link loads; this package provides the substrate:
// a graph view of a snapshot, shortest paths with ECMP path sets, and
// synthetic traceroutes whose hops are the map's router names.
//
// Links are unweighted (the map carries no metric), so shortest means
// fewest hops, and every equal-length path belongs to the ECMP set — the
// same assumption behind the paper's parallel-link imbalance analysis.
package routing

import (
	"fmt"
	"sort"

	"ovhweather/internal/wmap"
)

// Graph is an adjacency view over a snapshot's routers. Peerings are
// excluded: traffic transits the OVH backbone between routers, and the map
// shows peerings as stubs.
type Graph struct {
	nodes []string
	index map[string]int
	adj   [][]int // neighbor indices, deduplicated (parallels collapse)
}

// NewGraph builds the router graph of a snapshot.
func NewGraph(m *wmap.Map) *Graph {
	g := &Graph{index: make(map[string]int)}
	for _, n := range m.Nodes {
		if n.Kind != wmap.Router {
			continue
		}
		g.index[n.Name] = len(g.nodes)
		g.nodes = append(g.nodes, n.Name)
	}
	g.adj = make([][]int, len(g.nodes))
	seen := make(map[[2]int]bool)
	for _, l := range m.Links {
		if !l.Internal() {
			continue
		}
		a, okA := g.index[l.A]
		b, okB := g.index[l.B]
		if !okA || !okB || a == b {
			continue
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			seen[[2]int{b, a}] = true
			g.adj[a] = append(g.adj[a], b)
			g.adj[b] = append(g.adj[b], a)
		}
	}
	for i := range g.adj {
		sort.Ints(g.adj[i])
	}
	return g
}

// Distances runs a breadth-first search from src and returns the hop count
// to every router (-1 when unreachable).
func (g *Graph) Distances(src string) (map[string]int, error) {
	s, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown router %q", src)
	}
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make(map[string]int, len(g.nodes))
	for i, n := range g.nodes {
		out[n] = dist[i]
	}
	return out, nil
}

// Path is one loop-free router sequence from source to destination.
type Path []string

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// ECMPPaths returns every shortest path between two routers, in
// lexicographic order — the path set ECMP hashes flows across. maxPaths
// caps the enumeration (dense backbones have combinatorially many equal
// paths); 0 means no cap.
func (g *Graph) ECMPPaths(src, dst string, maxPaths int) ([]Path, error) {
	s, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown router %q", src)
	}
	d, ok := g.index[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown router %q", dst)
	}
	if s == d {
		return []Path{{src}}, nil
	}
	distTo, err := g.Distances(dst)
	if err != nil {
		return nil, err
	}
	if distTo[src] < 0 {
		return nil, nil // unreachable
	}
	// DFS along strictly-decreasing distance-to-destination: every walk is
	// a shortest path, so no visited set is needed.
	var out []Path
	var walk func(u int, acc []string) bool
	walk = func(u int, acc []string) bool {
		acc = append(acc, g.nodes[u])
		if u == d {
			out = append(out, append(Path(nil), acc...))
			return maxPaths <= 0 || len(out) < maxPaths
		}
		du := distTo[g.nodes[u]]
		for _, v := range g.adj[u] {
			if distTo[g.nodes[v]] == du-1 {
				if !walk(v, acc) {
					return false
				}
			}
		}
		return true
	}
	walk(s, nil)
	return out, nil
}

// Trace returns one shortest path from src to dst — the synthetic
// traceroute: deterministic (the lexicographically first ECMP member), so
// repeated traces are comparable across snapshots.
func (g *Graph) Trace(src, dst string) (Path, error) {
	paths, err := g.ECMPPaths(src, dst, 1)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("routing: %s and %s are not connected", src, dst)
	}
	return paths[0], nil
}
