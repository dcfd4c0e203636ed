package wmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceCompare is Compare as it was before its multisets went flat:
// one map entry and one load slice per link identity. Its sort has
// LabelB as the last key, as Compare's has. TestCompareMatchesReference
// holds Compare to it.
func referenceCompare(old, new *Map) *Diff {
	d := &Diff{}

	oldNodes := make(map[string]Node, len(old.Nodes))
	for _, n := range old.Nodes {
		oldNodes[n.Name] = n
	}
	newNodes := make(map[string]Node, len(new.Nodes))
	for _, n := range new.Nodes {
		newNodes[n.Name] = n
	}
	for _, n := range new.Nodes {
		if _, ok := oldNodes[n.Name]; !ok {
			d.NodesAdded = append(d.NodesAdded, n)
		}
	}
	for _, n := range old.Nodes {
		if _, ok := newNodes[n.Name]; !ok {
			d.NodesRemoved = append(d.NodesRemoved, n)
		}
	}
	sort.Slice(d.NodesAdded, func(i, j int) bool { return d.NodesAdded[i].Name < d.NodesAdded[j].Name })
	sort.Slice(d.NodesRemoved, func(i, j int) bool { return d.NodesRemoved[i].Name < d.NodesRemoved[j].Name })

	oldLinks := make(map[linkIdentity]int)
	type loadPair struct{ ab, ba Load }
	oldLoads := make(map[linkIdentity][]loadPair)
	for _, l := range old.Links {
		id := identityOf(l)
		oldLinks[id]++
		ab, ba := l.LoadAB, l.LoadBA
		if l.A > l.B {
			ab, ba = ba, ab // normalize to the identity's endpoint order
		}
		oldLoads[id] = append(oldLoads[id], loadPair{ab, ba})
	}
	newLinks := make(map[linkIdentity]int)
	for _, l := range new.Links {
		id := identityOf(l)
		newLinks[id]++
		// Load change accounting: match against the old multiset in order,
		// with both sides normalized to the identity's endpoint order.
		if lp := oldLoads[id]; len(lp) > 0 {
			ab, ba := l.LoadAB, l.LoadBA
			if l.A > l.B {
				ab, ba = ba, ab
			}
			if lp[0].ab != ab || lp[0].ba != ba {
				d.LoadChanges++
			}
			oldLoads[id] = lp[1:]
		}
	}

	ids := make(map[linkIdentity]struct{})
	for id := range oldLinks {
		ids[id] = struct{}{}
	}
	for id := range newLinks {
		ids[id] = struct{}{}
	}
	for id := range ids {
		delta := newLinks[id] - oldLinks[id]
		ld := LinkDelta{A: id.a, B: id.b, LabelA: id.la, LabelB: id.lb}
		switch {
		case delta > 0:
			ld.Count = delta
			d.LinksAdded = append(d.LinksAdded, ld)
		case delta < 0:
			ld.Count = -delta
			d.LinksRemoved = append(d.LinksRemoved, ld)
		}
	}
	sortDeltas := func(s []LinkDelta) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].A != s[j].A {
				return s[i].A < s[j].A
			}
			if s[i].B != s[j].B {
				return s[i].B < s[j].B
			}
			if s[i].LabelA != s[j].LabelA {
				return s[i].LabelA < s[j].LabelA
			}
			return s[i].LabelB < s[j].LabelB
		})
	}
	sortDeltas(d.LinksAdded)
	sortDeltas(d.LinksRemoved)
	return d
}

// TestCompareMatchesReference diffs random pairs of small maps, whose
// links repeat, reverse and relabel each other, with Compare and the
// reference, and requires equal diffs.
func TestCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "D"}
	labels := []string{"#1", "#2"}
	random := func() *Map {
		m := &Map{}
		for _, n := range names {
			if rng.Intn(4) > 0 {
				m.Nodes = append(m.Nodes, Node{Name: n, Kind: KindOfName(n)})
			}
		}
		for i := rng.Intn(12); i > 0; i-- {
			m.Links = append(m.Links, Link{
				A: names[rng.Intn(len(names))], B: names[rng.Intn(len(names))],
				LabelA: labels[rng.Intn(2)], LabelB: labels[rng.Intn(2)],
				LoadAB: Load(rng.Intn(3)), LoadBA: Load(rng.Intn(3)),
			})
		}
		return m
	}
	for i := 0; i < 5000; i++ {
		a, b := random(), random()
		if got, want := Compare(a, b), referenceCompare(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d:\n old %+v\n new %+v\n Compare   %+v\n reference %+v", i, a, b, got, want)
		}
	}
}

// ParallelGroup is the set of parallel links between one unordered node
// pair.
type ParallelGroup struct {
	A, B  string // lexicographically ordered endpoints
	Links []Link
}

// ParallelGroups partitions the map's links into groups of parallels,
// ordered by endpoint names. Links within a group keep map order. It is
// the grouping the imbalance walk was first written on, and the reference
// the Topology's sets are held to.
func (m *Map) ParallelGroups() []ParallelGroup {
	idx := make(map[[2]string]int)
	var groups []ParallelGroup
	for _, l := range m.Links {
		a, b := l.Endpoints()
		key := [2]string{a, b}
		gi, ok := idx[key]
		if !ok {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, ParallelGroup{A: a, B: b})
		}
		groups[gi].Links = append(groups[gi].Links, l)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].A != groups[j].A {
			return groups[i].A < groups[j].A
		}
		return groups[i].B < groups[j].B
	})
	return groups
}

// DirectedLoads returns, for the group, the loads in the direction from
// "from" toward the other endpoint. from must be one of g.A or g.B.
func (g ParallelGroup) DirectedLoads(from string) []Load {
	out := make([]Load, 0, len(g.Links))
	for _, l := range g.Links {
		switch from {
		case l.A:
			out = append(out, l.LoadAB)
		case l.B:
			out = append(out, l.LoadBA)
		}
	}
	return out
}

// referenceMeanParallelism is MeanParallelism over ParallelGroups.
func referenceMeanParallelism(m *Map) float64 {
	groups := m.ParallelGroups()
	if len(groups) == 0 {
		return 0
	}
	var total, n int
	for _, g := range groups {
		if KindOfName(g.A) == Router || KindOfName(g.B) == Router {
			total += len(g.Links)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// referenceImbalances is Imbalances over ParallelGroups and DirectedLoads.
func referenceImbalances(m *Map, opt ImbalanceOptions) []Imbalance {
	var out []Imbalance
	for _, g := range m.ParallelGroups() {
		internal := KindOfName(g.A) == Router && KindOfName(g.B) == Router
		for _, dir := range [2][2]string{{g.A, g.B}, {g.B, g.A}} {
			loads := g.DirectedLoads(dir[0])
			kept := loads[:0:0]
			for _, l := range loads {
				if opt.IgnoreZero && l == 0 {
					continue
				}
				if opt.IgnoreOne && l == 1 {
					continue
				}
				kept = append(kept, l)
			}
			if len(kept) < opt.MinLinks || len(kept) == 0 {
				continue
			}
			mn, mx := kept[0], kept[0]
			for _, l := range kept[1:] {
				if l < mn {
					mn = l
				}
				if l > mx {
					mx = l
				}
			}
			out = append(out, Imbalance{
				From:     dir[0],
				To:       dir[1],
				Internal: internal,
				Spread:   int(mx) - int(mn),
				Links:    len(kept),
			})
		}
	}
	return out
}

// referenceKeys is the direction walk the congestion fold and detector
// first ran: both directions of every link in link order, the ordinal
// counter of an endpoint pair advancing once per physical link in both
// orientations.
func referenceKeys(m *Map) []DirKey {
	ordinals := make(map[[2]string]int)
	var out []DirKey
	for _, l := range m.Links {
		out = append(out,
			DirKey{From: l.A, To: l.B, Label: l.LabelA, Ordinal: ordinals[[2]string{l.A, l.B}]},
			DirKey{From: l.B, To: l.A, Label: l.LabelB, Ordinal: ordinals[[2]string{l.B, l.A}]})
		ordinals[[2]string{l.A, l.B}]++
		ordinals[[2]string{l.B, l.A}]++
	}
	return out
}

// SameSkeleton is the skeleton compare Topology.Matches replaced: the
// same nodes, by value, and the same links by (A, B, LabelA, LabelB), in
// the same order. Loads never count.
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
