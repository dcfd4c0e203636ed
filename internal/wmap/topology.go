package wmap

import (
	"cmp"
	"slices"
	"sort"
)

// DirKey identifies one direction of one physical link across snapshots:
// its endpoints, the label on its from side, and its position among the
// parallels between the same endpoints (labels alone are not unique on
// the real map).
type DirKey struct {
	From, To string
	Label    string
	Ordinal  int
}

// DirSet is one directed set of parallel links: every direction from one
// node toward another, in link order. Dirs holds direction indices (see
// Topology).
type DirSet struct {
	From, To string
	Internal bool // both endpoints are OVH routers
	Dirs     []int32
}

// PeerEgress is one peering's egress: the directions from the backbone
// toward it, in link order.
type PeerEgress struct {
	Name string
	Dirs []int32
}

// Topology is one snapshot topology resolved once for everything that
// reads its shape: the congestion fold and detector address directions by
// DirKey, the Figure 5c fold and the imbalance endpoint walk the directed
// parallel sets, the maintenance detector compares the sets with
// parallels, and the upgrade detector reads each peering's egress.
//
// Directions are numbered by link: direction 2i is link i's AB direction
// and 2i+1 its BA direction. A Topology is immutable once built, and the
// slices its methods return must not be modified. Whether a snapshot still
// has the topology an index was built from is SameSkeleton's question.
type Topology struct {
	keys        []DirKey
	sets        []DirSet // Imbalances order
	parallel    []DirSet // the sets of two or more directions, in (From, To) order
	peers       []PeerEgress
	parallelism float64
}

// NewTopology indexes a link list, and the peerings among nodes (which
// may be nil when only the links matter).
func NewTopology(nodes []Node, links []Link) *Topology {
	t := &Topology{keys: make([]DirKey, 2*len(links))}

	// One pass groups the links by node pair. A direction's ordinal is the
	// number of links of its pair before its own, so it advances once per
	// physical link in both orientations; a link from a node to itself
	// puts both its directions in one set and counts twice.
	type pair struct {
		lo, hi string
		links  int32
		set    int32 // its first set in t.sets
	}
	pairOf := make(map[[2]string]int32)
	var pairs []pair
	pairIdx := make([]int32, len(links))
	for i, l := range links {
		lo, hi := l.Endpoints()
		p, ok := pairOf[[2]string{lo, hi}]
		if !ok {
			p = int32(len(pairs))
			pairOf[[2]string{lo, hi}] = p
			pairs = append(pairs, pair{lo: lo, hi: hi})
		}
		ord := int(pairs[p].links)
		if lo == hi {
			ord *= 2
		}
		t.keys[2*i] = DirKey{From: l.A, To: l.B, Label: l.LabelA, Ordinal: ord}
		t.keys[2*i+1] = DirKey{From: l.B, To: l.A, Label: l.LabelB, Ordinal: ord}
		pairs[p].links++
		pairIdx[i] = p
	}

	// The sets in Imbalances order (see Sets).
	order := make([]int32, len(pairs))
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(pairs[a].lo, pairs[b].lo), cmp.Compare(pairs[a].hi, pairs[b].hi))
	})
	t.sets = make([]DirSet, 0, 2*len(pairs))
	dirs := make([]int32, 2*len(links))
	var off, total, routed int32
	for _, p := range order {
		pp := &pairs[p]
		pp.set = int32(len(t.sets))
		internal := KindOfName(pp.lo) == Router && KindOfName(pp.hi) == Router
		if pp.lo == pp.hi {
			t.sets = append(t.sets, DirSet{From: pp.lo, To: pp.hi, Internal: internal, Dirs: dirs[off : off : off+2*pp.links]})
		} else {
			t.sets = append(t.sets,
				DirSet{From: pp.lo, To: pp.hi, Internal: internal, Dirs: dirs[off : off : off+pp.links]},
				DirSet{From: pp.hi, To: pp.lo, Internal: internal, Dirs: dirs[off+pp.links : off+pp.links : off+2*pp.links]})
		}
		off += 2 * pp.links
		// Mean parallelism: links per node pair, over the pairs with an
		// OVH router.
		if KindOfName(pp.lo) == Router || KindOfName(pp.hi) == Router {
			total += pp.links
			routed++
		}
	}
	if routed > 0 {
		t.parallelism = float64(total) / float64(routed)
	}
	// Each link's directions join its pair's sets in link order, AB the
	// set from A.
	for i, l := range links {
		s := t.sets[pairs[pairIdx[i]].set:]
		switch {
		case l.A == l.B:
			s[0].Dirs = append(s[0].Dirs, int32(2*i), int32(2*i+1))
		case l.A < l.B:
			s[0].Dirs = append(s[0].Dirs, int32(2*i))
			s[1].Dirs = append(s[1].Dirs, int32(2*i+1))
		default:
			s[0].Dirs = append(s[0].Dirs, int32(2*i+1))
			s[1].Dirs = append(s[1].Dirs, int32(2*i))
		}
	}

	t.parallel = make([]DirSet, 0, len(t.sets))
	for _, s := range t.sets {
		if len(s.Dirs) >= 2 {
			t.parallel = append(t.parallel, s)
		}
	}
	slices.SortFunc(t.parallel, func(a, b DirSet) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})

	var names []string
	for _, n := range nodes {
		if n.Kind == Peering {
			names = append(names, n.Name)
		}
	}
	if len(names) == 0 {
		return t
	}
	sort.Strings(names)
	peerOf := make(map[string]int32, len(names))
	for _, name := range names {
		if _, ok := peerOf[name]; !ok {
			peerOf[name] = int32(len(peerOf))
		}
	}
	// Every peering's egress, back to back in link order: one pass over
	// the links counts each peering's directions, a second fills them. A
	// direction is egress toward its to side; a link between two peerings
	// is egress of both, a link from a peering to itself only by its AB
	// direction. A repeated name repeats its entry.
	each := func(fn func(p, di int32)) {
		for i, l := range links {
			if p, ok := peerOf[l.B]; ok {
				fn(p, int32(2*i))
			}
			if p, ok := peerOf[l.A]; ok && l.A != l.B {
				fn(p, int32(2*i+1))
			}
		}
	}
	at := make([]int32, len(peerOf)+1) // peering p's egress is egress[at[p]:at[p+1]]
	each(func(p, _ int32) { at[p+1]++ })
	for p := range len(peerOf) {
		at[p+1] += at[p]
	}
	egress := make([]int32, at[len(peerOf)])
	fill := slices.Clone(at[:len(peerOf)])
	each(func(p, di int32) {
		egress[fill[p]] = di
		fill[p]++
	})
	for _, name := range names {
		if p := peerOf[name]; at[p] < at[p+1] {
			t.peers = append(t.peers, PeerEgress{Name: name, Dirs: egress[at[p]:at[p+1]:at[p+1]]})
		}
	}
	return t
}

// Keys returns every direction's DirKey, by direction index.
func (t *Topology) Keys() []DirKey { return t.keys }

// Sets returns the directed parallel sets in the order of the paper's
// imbalance walk: node pairs ordered by their lesser name, then their
// greater, and each pair's set from the lesser name before the one from
// the greater. A link from a node to itself, which Validate rejects,
// gives one set holding both its directions.
func (t *Topology) Sets() []DirSet { return t.sets }

// ParallelSets returns the directed sets of two or more directions, the
// ones a drain can move load within, in (From, To) order.
func (t *Topology) ParallelSets() []DirSet { return t.parallel }

// Peerings returns the egress of every peering among the nodes that has
// links, in name order.
func (t *Topology) Peerings() []PeerEgress { return t.peers }

// MeanParallelism returns the average number of parallel links between
// two nodes, over the node pairs that involve at least one OVH router:
// the "OVH routers had in average 6.58 parallel links" statistic of the
// paper.
func (t *Topology) MeanParallelism() float64 { return t.parallelism }

// Imbalances computes the load imbalance of every directed set, in Sets
// order, from the loads of links (a snapshot with this topology),
// applying the given filters.
func (t *Topology) Imbalances(links []Link, opt ImbalanceOptions) []Imbalance {
	var out []Imbalance
	for i := range t.sets {
		s := &t.sets[i]
		var n int
		var mn, mx Load
		for _, di := range s.Dirs {
			l := DirLoad(links, di)
			if (opt.IgnoreZero && l == 0) || (opt.IgnoreOne && l == 1) {
				continue
			}
			if n == 0 || l < mn {
				mn = l
			}
			if n == 0 || l > mx {
				mx = l
			}
			n++
		}
		if n == 0 || n < opt.MinLinks {
			continue
		}
		out = append(out, Imbalance{From: s.From, To: s.To, Internal: s.Internal, Spread: int(mx - mn), Links: n})
	}
	return out
}

// DirLoad returns the load of direction di of links.
func DirLoad(links []Link, di int32) Load {
	l := &links[di>>1]
	if di&1 == 0 {
		return l.LoadAB
	}
	return l.LoadBA
}

// SameSkeleton reports whether two snapshots have the same skeleton: the
// same nodes, by value, and the same links by (A, B, LabelA, LabelB), in
// the same order. Loads never count: a Topology, and any Compare diff
// that is not Empty, depend on nothing else. Snapshots decoded from one
// stored topology share its strings, so an unchanged skeleton compares
// at pointer speed.
//
//wm:hotpath
func SameSkeleton(a, b *Map) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Links {
		x, y := &a.Links[i], &b.Links[i]
		if x.A != y.A || x.B != y.B || x.LabelA != y.LabelA || x.LabelB != y.LabelB {
			return false
		}
	}
	return true
}
