package wmap

import "sort"

// Diff describes the topology change between two snapshots of the same
// map: which nodes appeared or vanished, and how the link population moved.
// The count-based evolution series (Figure 4a/4b) says *how much* changed;
// the diff says *what* changed, which is how the paper suggests
// distinguishing upgrades from failures ("Future work could use router
// names to identify the spread of these variations").
type Diff struct {
	NodesAdded   []Node
	NodesRemoved []Node
	// LinksAdded/LinksRemoved hold the per-endpoint-pair link-count deltas:
	// parallel links are anonymous on the map, so links are diffed as
	// multisets per (endpoints, labels) group.
	LinksAdded   []LinkDelta
	LinksRemoved []LinkDelta
	// LoadChanges counts links whose loads moved between the snapshots
	// among pairs present in both.
	LoadChanges int
}

// LinkDelta is a change in the number of links of one identity.
type LinkDelta struct {
	A, B           string
	LabelA, LabelB string
	Count          int
}

// Empty reports whether the diff carries no topology change (load changes
// do not count; they happen every five minutes).
func (d *Diff) Empty() bool {
	return len(d.NodesAdded) == 0 && len(d.NodesRemoved) == 0 &&
		len(d.LinksAdded) == 0 && len(d.LinksRemoved) == 0
}

// linkIdentity keys links for multiset diffing, orientation-normalized.
type linkIdentity struct {
	a, b, la, lb string
}

func identityOf(l Link) linkIdentity {
	if l.A <= l.B {
		return linkIdentity{l.A, l.B, l.LabelA, l.LabelB}
	}
	return linkIdentity{l.B, l.A, l.LabelB, l.LabelA}
}

// Compare computes the topology diff from an older snapshot to a newer one.
func Compare(old, new *Map) *Diff {
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

	// Links are diffed as multisets per identity. Each identity's old
	// loads queue up in one flat slice, in old link order, for the load
	// change accounting.
	type idAcc struct {
		id         linkIdentity
		old, new   int
		head, tail int // the identity's unmatched old loads are loads[head:tail]
	}
	type loadPair struct{ ab, ba Load }
	normalized := func(l Link) loadPair {
		if l.A > l.B {
			return loadPair{l.LoadBA, l.LoadAB} // the identity's endpoint order
		}
		return loadPair{l.LoadAB, l.LoadBA}
	}
	index := make(map[linkIdentity]int, len(old.Links))
	accs := make([]idAcc, 0, len(old.Links))
	accOf := func(l Link) *idAcc {
		id := identityOf(l)
		k, ok := index[id]
		if !ok {
			k = len(accs)
			index[id] = k
			accs = append(accs, idAcc{id: id})
		}
		return &accs[k]
	}
	for _, l := range old.Links {
		accOf(l).old++
	}
	off := 0
	for k := range accs {
		accs[k].head, accs[k].tail = off, off
		off += accs[k].old
	}
	loads := make([]loadPair, len(old.Links))
	for _, l := range old.Links {
		a := accOf(l)
		loads[a.tail] = normalized(l)
		a.tail++
	}
	for _, l := range new.Links {
		a := accOf(l)
		a.new++
		// Load change accounting: match against the old multiset in order,
		// with both sides normalized to the identity's endpoint order.
		if a.head < a.tail {
			if loads[a.head] != normalized(l) {
				d.LoadChanges++
			}
			a.head++
		}
	}

	for _, a := range accs {
		ld := LinkDelta{A: a.id.a, B: a.id.b, LabelA: a.id.la, LabelB: a.id.lb}
		switch delta := a.new - a.old; {
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
