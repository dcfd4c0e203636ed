package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ovhweather/internal/wmap"
)

// simLink is one physical link inside a parallel group.
type simLink struct {
	id         int
	active     bool
	jitterSeed uint64
}

// simGroup is a set of parallel links between two nodes, the unit at which
// demand is generated and ECMP spreads it.
type simGroup struct {
	id        int
	a, b      string // a is always an OVH router; b may be a router or peering
	internal  bool
	edge      bool    // single-link attachment of an edge router; never widened
	demandA   float64 // calibrated per-link load (%) in the a→b direction
	demandB   float64 // calibrated per-link load (%) in the b→a direction
	baseCount int     // parallelism at calibration; demand scales with it
	noiseSeed uint64
	dupLabels bool // all parallels labelled "#1", as seen on some real groups
	links     []simLink
}

func (g *simGroup) activeCount() int {
	n := 0
	for _, l := range g.links {
		if l.active {
			n++
		}
	}
	return n
}

// removedBatch remembers what a RemoveRouters event deleted so that a
// RestoreRouters event can undo it exactly.
type removedBatch struct {
	nodes  []string
	groups []*simGroup
}

// mapState is the evolving topology of one map.
type mapState struct {
	sc      MapScenario
	traffic TrafficParams
	rng     *rand.Rand
	names   *namePool
	nodes   map[string]wmap.NodeKind
	order   []string // node insertion order, for deterministic rendering
	groups  []*simGroup

	coreRouters []string // attachment candidates for new routers/peerings
	ownCore     []string // core routers generated by this map (not borrowed)
	lent        int      // prefix of ownCore already lent to other maps
	addedPool   []string // routers added by events; preferred removal targets
	lastRemoved removedBatch

	nextLinkID  int
	nextGroupID int
}

// newMapState builds the initial topology of the map at scenario start.
// borrowed holds source-map router names wired into this map.
func newMapState(sc MapScenario, borrowed []string, traffic TrafficParams) (*mapState, error) {
	st := &mapState{
		sc:      sc,
		traffic: traffic,
		rng:     rand.New(rand.NewSource(sc.Seed)),
		nodes:   make(map[string]wmap.NodeKind),
	}
	st.names = newNamePool(sc.Region, st.rng)
	for name := range sc.ScriptedPeerings {
		st.names.reservePeering(name)
	}

	// Own routers plus borrowed ones form the node set.
	own := make([]string, 0, sc.Routers)
	for i := 0; i < sc.Routers; i++ {
		own = append(own, st.names.router())
	}
	all := append(append([]string(nil), own...), borrowed...)
	if len(all) == 0 {
		return nil, fmt.Errorf("netsim: map %s has no routers", sc.ID)
	}
	for _, r := range all {
		st.addNode(r, wmap.Router)
	}

	// Partition into edge routers (single link) and core.
	nEdge := int(float64(len(all)) * sc.EdgeFraction)
	if nEdge >= len(all) {
		nEdge = len(all) - 1
	}
	// Borrowed routers always join the core: they model gateways.
	perm := st.rng.Perm(len(own))
	var edge []string
	core := append([]string(nil), borrowed...)
	for _, idx := range perm {
		if len(edge) < nEdge {
			edge = append(edge, own[idx])
		} else {
			core = append(core, own[idx])
		}
	}
	if len(core) < 2 {
		return nil, fmt.Errorf("netsim: map %s core too small (%d routers)", sc.ID, len(core))
	}
	st.coreRouters = core
	st.ownCore = core[len(borrowed):]

	// Internal links. Budget: ring over the core for connectivity, one
	// attachment per edge router, then preferential-attachment parallels
	// and chords until the target is met.
	budget := sc.InternalLinks
	ringPar := 2
	if budget < len(core)*ringPar+len(edge) {
		ringPar = 1
	}
	for i := 0; i < len(core) && budget > 0; i++ {
		j := (i + 1) % len(core)
		if len(core) == 2 && i == 1 {
			break // avoid a duplicate group on a 2-router core
		}
		n := ringPar
		if n > budget {
			n = budget
		}
		st.newInternalGroup(core[i], core[j], n)
		budget -= n
	}
	for _, e := range edge {
		if budget <= 0 {
			break
		}
		g := st.newInternalGroup(e, core[st.rng.Intn(len(core))], 1)
		g.edge = true
		budget--
	}
	st.fillInternal(budget)

	// External links: scripted peerings first, then random carriers.
	ext := sc.ExternalLinks
	scripted := make([]string, 0, len(sc.ScriptedPeerings))
	for name := range sc.ScriptedPeerings {
		scripted = append(scripted, name)
	}
	sort.Strings(scripted)
	for _, name := range scripted {
		n := sc.ScriptedPeerings[name]
		if n > ext {
			n = ext
		}
		if n <= 0 {
			continue
		}
		st.newScriptedPeeringGroup(name, n)
		ext -= n
	}
	for ext > 0 {
		n := 1 + st.rng.Intn(8)
		if n > ext {
			n = ext
		}
		st.newExternalGroup(st.names.peering(), n)
		ext -= n
	}
	return st, nil
}

func (st *mapState) addNode(name string, kind wmap.NodeKind) {
	if _, ok := st.nodes[name]; ok {
		return
	}
	st.nodes[name] = kind
	st.order = append(st.order, name)
}

func (st *mapState) removeNode(name string) {
	delete(st.nodes, name)
	for i, n := range st.order {
		if n == name {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

func (st *mapState) newLink() simLink {
	st.nextLinkID++
	return simLink{
		id:         st.nextLinkID,
		active:     true,
		jitterSeed: splitmix64(uint64(st.sc.Seed)<<32 ^ uint64(st.nextLinkID)),
	}
}

func (st *mapState) newGroup(a, b string, n int, internal bool) *simGroup {
	st.nextGroupID++
	g := &simGroup{
		id:        st.nextGroupID,
		a:         a,
		b:         b,
		internal:  internal,
		baseCount: n,
		noiseSeed: splitmix64(uint64(st.sc.Seed)<<16 ^ uint64(st.nextGroupID)*2654435761),
		dupLabels: st.rng.Float64() < 0.03,
	}
	for i := 0; i < n; i++ {
		g.links = append(g.links, st.newLink())
	}
	st.groups = append(st.groups, g)
	return g
}

// newInternalGroup creates a router-router group with calibrated demand.
func (st *mapState) newInternalGroup(a, b string, n int) *simGroup {
	g := st.newGroup(a, b, n, true)
	p := st.traffic
	base := p.InternalBase + p.InternalRange*math.Pow(st.rng.Float64(), p.InternalShape)
	if st.rng.Float64() < p.HotFraction {
		base += p.HotBoost
	}
	g.demandA = base * (0.8 + 0.4*st.rng.Float64())
	g.demandB = base * (0.8 + 0.4*st.rng.Float64())
	return g
}

// newExternalGroup creates a router-peering group; a is drawn from the core
// with degree-weighted preference, mirroring how big sites concentrate
// peering.
func (st *mapState) newExternalGroup(peering string, n int) *simGroup {
	router := st.weightedCoreRouter()
	st.addNode(peering, wmap.Peering)
	g := st.newGroup(router, peering, n, false)
	p := st.traffic
	egress := p.ExternalBase + p.ExternalRange*math.Pow(st.rng.Float64(), p.ExternalShape)
	g.demandA = egress                                // OVH → peer
	g.demandB = egress * (0.3 + 0.6*st.rng.Float64()) // peer → OVH
	return g
}

// newScriptedPeeringGroup creates the deliberately-placed peering group of
// the upgrade study with per-link demand high enough that an upgrade is
// warranted (~45 % egress at daily mean).
func (st *mapState) newScriptedPeeringGroup(peering string, n int) *simGroup {
	router := st.weightedCoreRouter()
	st.addNode(peering, wmap.Peering)
	g := st.newGroup(router, peering, n, false)
	g.demandA = 46
	g.demandB = 20
	return g
}

// weightedCoreRouter picks a core router with probability proportional to
// its current degree plus one (preferential attachment), producing the
// heavy-tailed degree distribution of Figure 4c.
func (st *mapState) weightedCoreRouter() string {
	if len(st.coreRouters) == 0 {
		return st.order[0]
	}
	deg := make(map[string]int, len(st.coreRouters))
	for _, g := range st.groups {
		deg[g.a] += len(g.links)
		deg[g.b] += len(g.links)
	}
	total := 0
	for _, r := range st.coreRouters {
		total += deg[r] + 1
	}
	pick := st.rng.Intn(total)
	for _, r := range st.coreRouters {
		pick -= deg[r] + 1
		if pick < 0 {
			return r
		}
	}
	return st.coreRouters[len(st.coreRouters)-1]
}

// fillInternal adds budget internal links: 60 % as extra parallels on
// existing internal groups, 40 % as new chords between preferred core
// routers. A chord that lands on an already-connected pair extends that
// pair's existing group instead — a single demand pool per router pair is
// what keeps ECMP imbalance low on the rendered map.
func (st *mapState) fillInternal(budget int) {
	for budget > 0 {
		if gs := st.widenableInternalGroups(); st.rng.Float64() < 0.6 && len(gs) > 0 {
			g := gs[st.rng.Intn(len(gs))]
			g.links = append(g.links, st.newLink())
			g.baseCount++
			budget--
			continue
		}
		a := st.weightedCoreRouter()
		b := st.weightedCoreRouter()
		if a == b {
			continue
		}
		n := 1 + st.rng.Intn(6)
		if n > budget {
			n = budget
		}
		if g := st.groupBetween(a, b); g != nil {
			for i := 0; i < n; i++ {
				g.links = append(g.links, st.newLink())
			}
			g.baseCount += n
		} else {
			st.newInternalGroup(a, b, n)
		}
		budget -= n
	}
}

// groupBetween returns the existing group connecting a and b in either
// orientation, or nil.
func (st *mapState) groupBetween(a, b string) *simGroup {
	for _, g := range st.groups {
		if (g.a == a && g.b == b) || (g.a == b && g.b == a) {
			return g
		}
	}
	return nil
}

// widenableInternalGroups returns internal groups eligible for extra
// parallels. Edge-router attachments stay single links so the degree-1
// population of Figure 4c survives filler and upgrade events.
func (st *mapState) widenableInternalGroups() []*simGroup {
	var out []*simGroup
	for _, g := range st.groups {
		if g.internal && !g.edge {
			out = append(out, g)
		}
	}
	return out
}
