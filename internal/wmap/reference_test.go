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
