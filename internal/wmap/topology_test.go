package wmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// randomTopology draws a map from seed: nodes whose kind usually but not
// always follows the naming convention, names that may repeat, and up to
// 400 links over few node pairs, so that parallels, repeated labels and
// reversed orientations are common and link indices pass 255. A link
// from a node to itself is drawn only when selfLoops is set.
func randomTopology(seed int64, links uint16, nodes uint8, selfLoops bool) *Map {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"fra-a", "rbx-b", "gra-c", "lon-d", "AMS-IX", "VODAFONE", "ARELION", "DE-CIX"}
	labels := []string{"#1", "#2", "#3", ""}
	m := &Map{ID: Europe}
	for i := 0; i < 2+int(nodes)%10; i++ {
		name := names[rng.Intn(len(names))]
		kind := KindOfName(name)
		if rng.Intn(8) == 0 {
			kind = map[NodeKind]NodeKind{Router: Peering, Peering: Router}[kind]
		}
		m.Nodes = append(m.Nodes, Node{Name: name, Kind: kind})
	}
	for i := 0; i < int(links)%400; i++ {
		a := m.Nodes[rng.Intn(len(m.Nodes))].Name
		b := m.Nodes[rng.Intn(len(m.Nodes))].Name
		if a == b && !selfLoops {
			continue
		}
		m.Links = append(m.Links, Link{
			A: a, B: b,
			LabelA: labels[rng.Intn(len(labels))], LabelB: labels[rng.Intn(len(labels))],
			LoadAB: Load(rng.Intn(4) * rng.Intn(30)), LoadBA: Load(rng.Intn(4) * rng.Intn(30)),
		})
	}
	return m
}

// checkTopology holds the index of m to the references: keys to the
// direction walk, the parallel sets to a (From, To) grouping of that walk,
// the egress to UpgradeStudy's rule, parallelism to MeanParallelism over
// ParallelGroups and, on maps without a link from a node to itself, the
// sets and the imbalances to ParallelGroups and DirectedLoads.
func checkTopology(t *testing.T, m *Map) {
	t.Helper()
	ix := NewTopology(m.Nodes, m.Links)

	keys := referenceKeys(m)
	if got := ix.Keys(); len(got) != len(keys) || (len(keys) > 0 && !reflect.DeepEqual(got, keys)) {
		t.Fatalf("keys:\n got %v\nwant %v", got, keys)
	}

	type set struct {
		From, To string
		Internal bool
		Dirs     []int32
	}
	flatten := func(ss []DirSet) []set {
		var out []set
		for _, s := range ss {
			out = append(out, set(s))
		}
		return out
	}
	byPair := map[[2]string]*set{}
	var parallel []*set
	for di, k := range keys {
		s := byPair[[2]string{k.From, k.To}]
		if s == nil {
			s = &set{From: k.From, To: k.To, Internal: KindOfName(k.From) == Router && KindOfName(k.To) == Router}
			byPair[[2]string{k.From, k.To}] = s
			parallel = append(parallel, s)
		}
		s.Dirs = append(s.Dirs, int32(di))
	}
	sort.Slice(parallel, func(i, j int) bool {
		if parallel[i].From != parallel[j].From {
			return parallel[i].From < parallel[j].From
		}
		return parallel[i].To < parallel[j].To
	})
	var wantParallel []set
	for _, s := range parallel {
		if len(s.Dirs) >= 2 {
			wantParallel = append(wantParallel, *s)
		}
	}
	if got := flatten(ix.ParallelSets()); !reflect.DeepEqual(got, wantParallel) {
		t.Fatalf("parallel sets:\n got %v\nwant %v", got, wantParallel)
	}

	var wantPeers []PeerEgress
	var peerings []string
	for _, n := range m.Nodes {
		if n.Kind == Peering {
			peerings = append(peerings, n.Name)
		}
	}
	sort.Strings(peerings)
	for _, name := range peerings {
		pe := PeerEgress{Name: name}
		for i, l := range m.Links {
			switch name {
			case l.B:
				pe.Dirs = append(pe.Dirs, int32(2*i))
			case l.A:
				pe.Dirs = append(pe.Dirs, int32(2*i+1))
			}
		}
		if len(pe.Dirs) > 0 {
			wantPeers = append(wantPeers, pe)
		}
	}
	if got := ix.Peerings(); !reflect.DeepEqual(got, wantPeers) {
		t.Fatalf("peerings:\n got %v\nwant %v", got, wantPeers)
	}

	if got, want := ix.MeanParallelism(), referenceMeanParallelism(m); got != want {
		t.Fatalf("mean parallelism = %v, want %v", got, want)
	}

	for _, l := range m.Links {
		if l.A == l.B {
			return
		}
	}
	// DirectedLoads over links tagged with their index (LabelA) and with
	// loads 0 (AB) and 1 (BA) lists each directed set's directions: with
	// no self-loops it returns one load per link of the group, in order.
	// A one-byte load is too narrow to carry the direction index itself.
	tagged := &Map{Links: make([]Link, len(m.Links))}
	for i, l := range m.Links {
		l.LabelA, l.LoadAB, l.LoadBA = strconv.Itoa(i), 0, 1
		tagged.Links[i] = l
	}
	var wantSets []set
	for _, g := range tagged.ParallelGroups() {
		for _, dir := range [2][2]string{{g.A, g.B}, {g.B, g.A}} {
			s := set{From: dir[0], To: dir[1], Internal: KindOfName(g.A) == Router && KindOfName(g.B) == Router}
			for k, ba := range g.DirectedLoads(dir[0]) {
				i, err := strconv.Atoi(g.Links[k].LabelA)
				if err != nil {
					t.Fatal(err)
				}
				s.Dirs = append(s.Dirs, int32(2*i+int(ba)))
			}
			wantSets = append(wantSets, s)
		}
	}
	if got := flatten(ix.Sets()); !reflect.DeepEqual(got, wantSets) {
		t.Fatalf("sets:\n got %v\nwant %v", got, wantSets)
	}
	for _, opt := range []ImbalanceOptions{PaperImbalanceOptions(), {}, {IgnoreZero: true, MinLinks: 3}} {
		if got, want := ix.Imbalances(m.Links, opt), referenceImbalances(m, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("imbalances %+v:\n got %v\nwant %v", opt, got, want)
		}
	}
}

// FuzzTopologyIndex holds the topology index of random link lists to the
// references it replaced (checkTopology), and SameSkeleton to what it
// must tell apart: the same skeleton under new loads, and one relabelled
// link or one node changed.
func FuzzTopologyIndex(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), false)
	f.Add(int64(2), uint16(12), uint8(3), false)
	f.Add(int64(3), uint16(300), uint8(9), false)
	f.Add(int64(4), uint16(40), uint8(1), true)
	f.Add(int64(5), uint16(399), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, links uint16, nodes uint8, selfLoops bool) {
		m := randomTopology(seed, links, nodes, selfLoops)
		checkTopology(t, m)

		loads := m.Clone()
		for i := range loads.Links {
			loads.Links[i].LoadAB, loads.Links[i].LoadBA = Load(int(loads.Links[i].LoadBA)+1), 0
		}
		if !SameSkeleton(m, loads) {
			t.Fatal("SameSkeleton: a load change is a skeleton change")
		}
		if len(m.Links) > 0 {
			relabel := m.Clone()
			relabel.Links[len(relabel.Links)/2].LabelB += "x"
			if SameSkeleton(m, relabel) {
				t.Fatal("SameSkeleton: a relabelled link is the same skeleton")
			}
		}
		kind := m.Clone()
		kind.Nodes[0].Kind = "switch"
		if SameSkeleton(m, kind) || SameSkeleton(m, &Map{Nodes: m.Nodes[1:], Links: m.Links}) {
			t.Fatal("SameSkeleton: a changed node is the same skeleton")
		}
	})
}

// FuzzTopologyMatches holds Topology.Matches to SameSkeleton, the compare
// it replaced, on pairs of random maps: a map that carries the topology
// itself, maps without a Topo, a map whose Topo is another topology of its
// own skeleton, and copies with reordered links, a relabelled link, a
// flipped node kind or another node list. A nil Topology matches nothing.
func FuzzTopologyMatches(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(12), uint8(3), uint8(1))
	f.Add(int64(3), uint16(300), uint8(9), uint8(7))
	f.Add(int64(4), uint16(40), uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, links uint16, nodes uint8, pick uint8) {
		m := randomTopology(seed, links, nodes, pick&1 == 0)
		topo := NewTopology(m.Nodes, m.Links)
		if (*Topology)(nil).Matches(m) {
			t.Fatal("a nil Topology matched")
		}

		view := m.Clone()
		for i := range view.Links {
			view.Links[i].LoadAB = Load(int(pick) % 101)
		}
		view.Topo = topo
		own := m.Clone()
		own.Topo = NewTopology(own.Nodes, own.Links)
		cands := []*Map{m, view, own, randomTopology(seed+1, links, nodes, pick&1 == 0)}
		if n := len(m.Links); n > 1 {
			i, j := int(pick)%n, (int(pick)/2+1)%n
			swapped := m.Clone()
			swapped.Links[i], swapped.Links[j] = swapped.Links[j], swapped.Links[i]
			relabel := m.Clone()
			relabel.Links[i].LabelA += "x"
			cands = append(cands, swapped, relabel)
		}
		kind := m.Clone()
		k := int(pick) % len(kind.Nodes)
		kind.Nodes[k].Kind = map[NodeKind]NodeKind{Router: Peering, Peering: Router}[kind.Nodes[k].Kind]
		cands = append(cands, kind, &Map{Nodes: m.Nodes[1:], Links: m.Links})

		for ci, c := range cands {
			if got, want := topo.Matches(c), SameSkeleton(m, c); got != want {
				t.Fatalf("candidate %d: Matches %v, SameSkeleton %v", ci, got, want)
			}
			if c.Topo != nil && !c.Topo.Matches(c) {
				t.Fatalf("candidate %d: its own Topo does not match it", ci)
			}
		}
	})
}

// TestTopologyIndexConcurrentFirstUse has eight goroutines race to the
// first use of one topology's lazy index, as API and grid goroutines do on
// an interned archive topology; each must read what a serially built twin
// holds. Run under -race it proves the index build is published safely.
func TestTopologyIndexConcurrentFirstUse(t *testing.T) {
	type index struct {
		Keys        []DirKey
		Sets        []DirSet
		Parallel    []DirSet
		Peers       []PeerEgress
		Parallelism float64
	}
	read := func(ix *Topology) index {
		return index{ix.Keys(), ix.Sets(), ix.ParallelSets(), ix.Peerings(), ix.MeanParallelism()}
	}
	for seed := int64(0); seed < 20; seed++ {
		m := randomTopology(seed, uint16(50+10*seed), uint8(seed), false)
		want := read(NewTopology(m.Nodes, m.Links))
		shared := NewTopology(m.Nodes, m.Links)
		var wg sync.WaitGroup
		got := make([]index, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = read(shared)
			}()
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Fatalf("seed %d goroutine %d: index differs from a serial build", seed, g)
			}
		}
	}
}

// TestTopologyIndexMatchesReference runs checkTopology over a thousand
// random maps, so the plain test run covers what the fuzzer explores.
func TestTopologyIndexMatchesReference(t *testing.T) {
	for i := 0; i < 1000; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkTopology(t, randomTopology(int64(i), uint16(i*7), uint8(i), i%3 == 0))
		})
	}
}
