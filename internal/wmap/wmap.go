// Package wmap defines the weather-map domain model shared by the synthetic
// network simulator, the SVG renderer, and the extraction pipeline: maps,
// nodes (OVH routers and physical peerings), and bidirectional links with
// per-direction load percentages and labels.
//
// The model mirrors what the OVH Network Weathermap displays. An OVH router
// is a white box with a lower-case name (fra-fr5-pb6-nc5); a physical
// peering is a white box with an upper-case name (ARELION). Two meeting
// arrows form a bidirectional link; each direction carries a load percentage
// and a short label such as "#1". Parallel links between the same two nodes
// are common and may share labels.
package wmap

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// MapID identifies one of the four backbone weather maps.
type MapID string

// The four backbone maps of the OVH Network Weathermap.
const (
	Europe       MapID = "europe"
	World        MapID = "world"
	NorthAmerica MapID = "north-america"
	AsiaPacific  MapID = "asia-pacific"
)

// AllMaps lists the four backbone maps in the paper's presentation order.
func AllMaps() []MapID { return []MapID{Europe, World, NorthAmerica, AsiaPacific} }

// Title returns the human-readable map name used in the paper's tables.
func (id MapID) Title() string {
	switch id {
	case Europe:
		return "Europe"
	case World:
		return "World"
	case NorthAmerica:
		return "North America"
	case AsiaPacific:
		return "Asia Pacific"
	default:
		return string(id)
	}
}

// ParseMapID resolves a map name (id form or title form, case-insensitive)
// to a MapID.
func ParseMapID(s string) (MapID, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "europe":
		return Europe, nil
	case "world":
		return World, nil
	case "north-america", "north america", "na":
		return NorthAmerica, nil
	case "asia-pacific", "asia pacific", "apac":
		return AsiaPacific, nil
	default:
		return "", fmt.Errorf("wmap: unknown map %q", s)
	}
}

// NodeKind distinguishes OVH routers from physical peerings.
type NodeKind string

// Node kinds.
const (
	Router  NodeKind = "router"
	Peering NodeKind = "peering"
)

// KindOfName infers a node's kind from its displayed name, following the
// weather map's convention: routers are lower case, peerings upper case.
func KindOfName(name string) NodeKind {
	for _, r := range name {
		if r >= 'a' && r <= 'z' {
			return Router
		}
		if r >= 'A' && r <= 'Z' {
			return Peering
		}
	}
	return Peering
}

// Node is a white box on the map: an OVH router or a physical peering.
type Node struct {
	Name string
	Kind NodeKind
}

// Load is a link load percentage in [0, 100] as displayed on the map. A
// disabled link is shown with load 0. It is one byte, so a wider value is
// range-checked before it converts to a Load, and arithmetic widens each
// operand first (int(a) - int(b)); wmlint's loadarith pass enforces the
// latter.
type Load uint8

// Valid reports whether the load lies in the displayable range.
func (l Load) Valid() bool { return l <= 100 }

// String renders the load the way the weather map labels arrows ("42 %").
func (l Load) String() string { return fmt.Sprintf("%d %%", int(l)) }

// Link is a bidirectional link between two nodes. Direction AB is "from A
// toward B"; from the OVH perspective a link to a peering has A as the
// router, making AB the egress direction.
type Link struct {
	A, B           string // node names
	LabelA, LabelB string // per-direction labels, e.g. "#1" (may repeat across parallels)
	LoadAB, LoadBA Load   // load percentage per direction
}

// Internal reports whether the link connects two OVH routers. External
// links reach a physical peering.
func (l Link) Internal() bool {
	return KindOfName(l.A) == Router && KindOfName(l.B) == Router
}

// Endpoints returns the two node names in lexicographic order, providing a
// direction-independent identity for grouping parallel links.
func (l Link) Endpoints() (string, string) {
	if l.A <= l.B {
		return l.A, l.B
	}
	return l.B, l.A
}

// Map is one weather-map snapshot: the nodes and links visible at Time.
type Map struct {
	ID    MapID
	Time  time.Time
	Nodes []Node
	Links []Link
	// Topo, when set, is the topology of exactly these Nodes and Links.
	// Only read-only views set it (tsdb's Cursor.MapView); Clone drops it,
	// so no map that may be edited carries one.
	Topo *Topology
}

// Topology returns the map's topology: Topo when set, else a new one over
// a copy of its skeleton, loads zeroed.
func (m *Map) Topology() *Topology {
	if m.Topo != nil {
		return m.Topo
	}
	links := make([]Link, len(m.Links))
	for i, l := range m.Links {
		l.LoadAB, l.LoadBA = 0, 0
		links[i] = l
	}
	return NewTopology(append([]Node(nil), m.Nodes...), links)
}

// Routers returns the OVH routers on the map.
func (m *Map) Routers() []Node {
	var out []Node
	for _, n := range m.Nodes {
		if n.Kind == Router {
			out = append(out, n)
		}
	}
	return out
}

// InternalLinks returns the links connecting two OVH routers.
func (m *Map) InternalLinks() []Link {
	var out []Link
	for _, l := range m.Links {
		if l.Internal() {
			out = append(out, l)
		}
	}
	return out
}

// ExternalLinks returns the links reaching a physical peering.
func (m *Map) ExternalLinks() []Link {
	var out []Link
	for _, l := range m.Links {
		if !l.Internal() {
			out = append(out, l)
		}
	}
	return out
}

// Degree returns the number of links attached to the named node, counting
// every parallel link, as in the paper's Figure 4c.
func (m *Map) Degree(name string) int {
	var d int
	for _, l := range m.Links {
		if l.A == name {
			d++
		}
		if l.B == name {
			d++
		}
	}
	return d
}

// RouterDegrees returns the degree of every OVH router on the map, ordered
// by router name.
func (m *Map) RouterDegrees() []int {
	rs := m.Routers()
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = m.Degree(r.Name)
	}
	return out
}

// Stats summarizes a map the way Table 1 does.
type Stats struct {
	MapID    MapID
	Routers  int
	Internal int
	External int
}

// Summarize computes the Table 1 row for the map.
func (m *Map) Summarize() Stats {
	return Stats{
		MapID:    m.ID,
		Routers:  len(m.Routers()),
		Internal: len(m.InternalLinks()),
		External: len(m.ExternalLinks()),
	}
}

// SummarizeAll computes per-map rows plus the paper's "Total" row, in which
// routers appearing simultaneously in several maps are counted once.
func SummarizeAll(maps []*Map) (rows []Stats, total Stats) {
	routerSet := make(map[string]struct{})
	for _, m := range maps {
		s := m.Summarize()
		rows = append(rows, s)
		total.Internal += s.Internal
		total.External += s.External
		for _, r := range m.Routers() {
			routerSet[r.Name] = struct{}{}
		}
	}
	total.Routers = len(routerSet)
	return rows, total
}

// Clone returns a deep copy of the map, without Topo.
func (m *Map) Clone() *Map {
	out := &Map{ID: m.ID, Time: m.Time}
	out.Nodes = append([]Node(nil), m.Nodes...)
	out.Links = append([]Link(nil), m.Links...)
	return out
}

// Validate checks the structural invariants the paper's sanity checks
// enforce on extracted maps: loads in range, links connecting two distinct
// known nodes, and every node attached to at least one link.
func (m *Map) Validate() error {
	known := make(map[string]struct{}, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("wmap: node with empty name")
		}
		if _, dup := known[n.Name]; dup {
			return fmt.Errorf("wmap: duplicate node %q", n.Name)
		}
		known[n.Name] = struct{}{}
	}
	attached := make(map[string]bool, len(m.Nodes))
	for i, l := range m.Links {
		if !l.LoadAB.Valid() || !l.LoadBA.Valid() {
			return fmt.Errorf("wmap: link %d (%s-%s): load out of [0, 100]", i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("wmap: link %d connects %q to itself", i, l.A)
		}
		if _, ok := known[l.A]; !ok {
			return fmt.Errorf("wmap: link %d references unknown node %q", i, l.A)
		}
		if _, ok := known[l.B]; !ok {
			return fmt.Errorf("wmap: link %d references unknown node %q", i, l.B)
		}
		attached[l.A] = true
		attached[l.B] = true
	}
	for _, n := range m.Nodes {
		if !attached[n.Name] {
			return fmt.Errorf("wmap: node %q has no link", n.Name)
		}
	}
	return nil
}
