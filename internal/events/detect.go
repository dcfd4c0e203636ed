package events

import (
	"slices"
	"sort"
	"strings"
	"time"

	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// ChurnTracker diffs consecutive snapshots of one map for the offline
// ChurnStudy fold. It keeps the previous snapshot itself; the live
// Detector keeps a copy of the skeleton instead. Both diff with
// wmap.Compare.
type ChurnTracker struct {
	prev *wmap.Map
}

// Observe feeds the next snapshot and returns the topology diff from the
// previous one, or nil when this is the first snapshot or nothing beyond
// loads changed.
func (c *ChurnTracker) Observe(m *wmap.Map) *wmap.Diff {
	defer func() { c.prev = m }()
	if c.prev == nil {
		return nil
	}
	if d := wmap.Compare(c.prev, m); !d.Empty() {
		return d
	}
	return nil
}

// Prev returns the previously observed snapshot (nil before the first).
func (c *ChurnTracker) Prev() *wmap.Map { return c.prev }

// UpgradeTracker watches the parallel-link count toward one peering and
// fires the paper's Figure 6 arrows: A when the count steps up, C when the
// added link first carries traffic. It is shared by UpgradeStudy and the
// live Detector; the per-observation semantics are exactly the offline
// fold's.
type UpgradeTracker struct {
	prevCount int
	hasPrev   bool
	// Added is arrow A (parallel count increased); Activated is arrow C
	// (every parallel carries traffic at or after Added).
	Added     time.Time
	Activated time.Time
}

// Observe feeds the peering's directed egress loads at snapshot time t.
// Call it only for snapshots where the peering has links (len(loads) > 0),
// matching the offline fold, which skips absent snapshots.
func (u *UpgradeTracker) Observe(t time.Time, loads []wmap.Load) (addedNow, activatedNow bool) {
	if u.hasPrev && len(loads) > u.prevCount && u.Added.IsZero() {
		u.Added = t
		addedNow = true
	}
	if !u.Added.IsZero() && u.Activated.IsZero() && !t.Before(u.Added) {
		all := true
		for _, l := range loads {
			if l == 0 {
				all = false
				break
			}
		}
		if all {
			u.Activated = t
			activatedNow = true
		}
	}
	u.prevCount, u.hasPrev = len(loads), true
	return addedNow, activatedNow
}

// Rearm clears a completed upgrade so the tracker can detect the next
// one, keeping the link-count memory.
func (u *UpgradeTracker) Rearm() {
	u.Added, u.Activated = time.Time{}, time.Time{}
}

// Direction is one directed load reading of one physical link: endpoints,
// the label on the from side, and the link's position among the parallels
// between the same endpoints (labels alone are not unique on the real map).
type Direction struct {
	From, To string
	Label    string
	Ordinal  int
	Load     wmap.Load
}

// EachDirection visits both directions of every link of a snapshot in
// deterministic (link slice) order, assigning parallel ordinals exactly
// the way the congestion fold always has: the ordinal counter for an
// endpoint pair advances once per physical link, in both orientations.
func EachDirection(m *wmap.Map, fn func(Direction)) {
	ordinals := make(map[[2]string]int)
	for _, l := range m.Links {
		fn(Direction{From: l.A, To: l.B, Label: l.LabelA, Ordinal: ordinals[[2]string{l.A, l.B}], Load: l.LoadAB})
		fn(Direction{From: l.B, To: l.A, Label: l.LabelB, Ordinal: ordinals[[2]string{l.B, l.A}], Load: l.LoadBA})
		ordinals[[2]string{l.A, l.B}]++
		ordinals[[2]string{l.B, l.A}]++
	}
}

// DirKey identifies one direction of one physical link across snapshots.
type DirKey struct {
	From, To string
	Label    string
	Ordinal  int
}

// Key returns the cross-snapshot identity of the direction.
func (d Direction) Key() DirKey {
	return DirKey{From: d.From, To: d.To, Label: d.Label, Ordinal: d.Ordinal}
}

// Emitted is one event plus the snapshot time at which the detector
// decided it was final. Time and EmitTime differ only for debounced churn
// (the event carries the change time; emission waits out the window).
// EmitTime orders events against the archive's commit frontier: a resumed
// ingest re-detects the whole committed prefix and keeps exactly the
// events with EmitTime past the last persisted frame.
type Emitted struct {
	Event
	EmitTime time.Time
}

// churnKey identifies one pending debounced change: a node by name, or a
// parallel-link identity (orientation-normalized by wmap.Compare).
type churnKey struct {
	node           string
	a, b           string
	labelA, labelB string
}

func (k churnKey) less(o churnKey) bool {
	if k.node != o.node {
		return k.node < o.node
	}
	if k.a != o.a {
		return k.a < o.a
	}
	if k.b != o.b {
		return k.b < o.b
	}
	if k.labelA != o.labelA {
		return k.labelA < o.labelA
	}
	return k.labelB < o.labelB
}

// pendingChurn accumulates the net delta of one topology element inside
// its debounce window.
type pendingChurn struct {
	first time.Time // when the change was first seen
	delta int       // net count change; 0 means the flap cancelled out
}

// Detector runs every event state machine over one map's snapshot stream.
// Feed snapshots in chronological order through Observe; each call
// returns the events that became final at that snapshot, in a
// deterministic order. Detector is not safe for concurrent use.
//
// Between two topology changes only the loads move, so the detector
// resolves each topology once into a plan (see plan) and checks every
// snapshot against its own copy of the last skeleton. A snapshot with an
// unchanged topology costs one pass over its loads, with no map lookups
// and no allocations. The detector never retains the caller's map.
//
// A Detector must never be copied: its trackers and maps are one
// causally ordered state machine, and a value copy forks that history
// (wmlint's sharded analyzer enforces this).
//
//wm:nocopy
type Detector struct {
	id  wmap.MapID
	cfg Config
	db  *peeringdb.DB

	// nodes and links copy the last observed snapshot: its skeleton, which
	// the plan was built from, and its loads, which wmap.Compare diffs
	// against on the next topology change.
	nodes   []wmap.Node
	links   []wmap.Link
	started bool
	plan    plan

	pending map[churnKey]*pendingChurn
	// congested is the hysteresis state of directions outside the plan:
	// a direction that vanished while congested stays so until it returns.
	congested map[DirKey]bool
	peers     map[string]*UpgradeTracker
	egress    []wmap.Load // scratch for UpgradeTracker.Observe
}

// plan is one topology resolved for the per-snapshot pass. Directions are
// numbered in EachDirection order: link i's AB direction is 2i and its BA
// direction 2i+1.
type plan struct {
	// Congestion: every direction's slot in dirs and hot. Directions with
	// equal keys share a slot, as they share one map entry by key.
	slot []int32
	dirs []DirKey
	hot  []bool

	// Maintenance: the directed parallel groups of two or more members,
	// in (From, To) order. members lists each group's directions in link
	// order, and last their loads at the previous snapshot.
	groups  []dirGroup
	members []int32
	last    []wmap.Load

	// Upgrades: the peerings with links, in name order, and each one's
	// egress directions in link order.
	peers  []peerPlan
	egress []int32
}

// dirGroup is one directed parallel group of a plan.
type dirGroup struct {
	from, to   string
	start, end int32 // its span of plan.members and plan.last
	// fresh marks a group whose previous snapshot had no group of the
	// same key and size, so the drain signature has nothing to match.
	fresh bool
}

// peerPlan is one peering of a plan.
type peerPlan struct {
	name       string
	tr         *UpgradeTracker
	start, end int32 // its span of plan.egress
}

// dirLoad returns the load of direction di of the links.
func dirLoad(links []wmap.Link, di int32) wmap.Load {
	l := &links[di>>1]
	if di&1 == 0 {
		return l.LoadAB
	}
	return l.LoadBA
}

// dirLabel returns the from-side label of direction di of the links.
func dirLabel(links []wmap.Link, di int32) string {
	l := &links[di>>1]
	if di&1 == 0 {
		return l.LabelA
	}
	return l.LabelB
}

// NewDetector returns a detector for one map. db may be nil, in which
// case upgrade events are never Confirmed.
func NewDetector(id wmap.MapID, cfg Config, db *peeringdb.DB) *Detector {
	return &Detector{
		id:        id,
		cfg:       cfg,
		db:        db,
		pending:   make(map[churnKey]*pendingChurn),
		congested: make(map[DirKey]bool),
		peers:     make(map[string]*UpgradeTracker),
	}
}

// Observe feeds the next snapshot and returns the newly final events.
// The returned slice is freshly allocated and owned by the caller; it is
// nil when nothing became final.
func (d *Detector) Observe(m *wmap.Map) []Emitted {
	var out []Emitted
	if d.started && sameSkeleton(m, d.nodes, d.links) {
		// The churn diff is empty by construction; only pending
		// debounces can become final.
		out = d.observeChurn(out, m.Time, nil)
	} else {
		out = d.retopologize(out, m)
	}
	out = d.observeLoads(out, m)
	// Render each event's summary exactly once, here, so the string is
	// built at detection time and travels with the event through the
	// archive cache, the broadcaster, and every response that serves it.
	for i := range out {
		out[i].Event.Summary = out[i].Event.Summarize()
	}
	return out
}

// sameSkeleton reports whether m has exactly the nodes (Name, Kind) and
// links (A, B, LabelA, LabelB) given, in the same order: everything the
// churn diff and the plan depend on.
//
//wm:hotpath
func sameSkeleton(m *wmap.Map, nodes []wmap.Node, links []wmap.Link) bool {
	if len(m.Nodes) != len(nodes) || len(m.Links) != len(links) {
		return false
	}
	for i := range nodes {
		if m.Nodes[i] != nodes[i] {
			return false
		}
	}
	for i := range links {
		x, y := &m.Links[i], &links[i]
		if x.A != y.A || x.B != y.B || x.LabelA != y.LabelA || x.LabelB != y.LabelB {
			return false
		}
	}
	return true
}

// retopologize handles a snapshot whose skeleton differs from the last
// one (or the first snapshot): it diffs the topologies for churn, moves
// the hysteresis and maintenance state over to a new plan, and takes a
// copy of the new skeleton.
func (d *Detector) retopologize(out []Emitted, m *wmap.Map) []Emitted {
	var diff *wmap.Diff
	if d.started {
		if df := wmap.Compare(&wmap.Map{Nodes: d.nodes, Links: d.links}, m); !df.Empty() {
			diff = df
		}
	}
	out = d.observeChurn(out, m.Time, diff)
	d.replan(m)
	d.nodes = append(d.nodes[:0], m.Nodes...)
	d.links = append(d.links[:0], m.Links...)
	d.started = true
	return out
}

// observeChurn merges the snapshot's diff into the pending set, cancels
// flaps, and emits the entries whose debounce window has elapsed.
func (d *Detector) observeChurn(out []Emitted, t time.Time, diff *wmap.Diff) []Emitted {
	if diff != nil {
		add := func(k churnKey, delta int) {
			p := d.pending[k]
			if p == nil {
				d.pending[k] = &pendingChurn{first: t, delta: delta}
				return
			}
			p.delta += delta
		}
		for _, n := range diff.NodesAdded {
			add(churnKey{node: n.Name}, 1)
		}
		for _, n := range diff.NodesRemoved {
			add(churnKey{node: n.Name}, -1)
		}
		for _, l := range diff.LinksAdded {
			add(churnKey{a: l.A, b: l.B, labelA: l.LabelA, labelB: l.LabelB}, l.Count)
		}
		for _, l := range diff.LinksRemoved {
			add(churnKey{a: l.A, b: l.B, labelA: l.LabelA, labelB: l.LabelB}, -l.Count)
		}
	}
	if len(d.pending) == 0 {
		return out
	}
	keys := make([]churnKey, 0, len(d.pending))
	for k := range d.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		p := d.pending[k]
		if p.delta == 0 { // the flap cancelled itself inside the window
			delete(d.pending, k)
			continue
		}
		if t.Before(p.first.Add(d.cfg.ChurnDebounce)) {
			continue
		}
		delete(d.pending, k)
		out = append(out, Emitted{EmitTime: t, Event: Event{
			Map: d.id, Type: TypeChurn, Time: p.first,
			Node: k.node, A: k.a, B: k.b, LabelA: k.labelA, LabelB: k.labelB,
			Delta: p.delta,
		}})
	}
	return out
}

// replan resolves m's topology into a new plan. Congestion state moves
// over by DirKey, through d.congested; a maintenance group keeps the
// previous snapshot's loads of the group with its key when that group
// had the same size; upgrade trackers are kept by peering name.
func (d *Detector) replan(m *wmap.Map) {
	old := &d.plan
	for s, k := range old.dirs {
		if old.hot[s] {
			d.congested[k] = true
		} else {
			delete(d.congested, k)
		}
	}
	oldLast := make(map[[2]string][]wmap.Load, len(old.groups))
	for _, g := range old.groups {
		oldLast[[2]string{g.from, g.to}] = old.last[g.start:g.end]
	}

	// One walk assigns every direction its congestion slot and its
	// directed group; a second places the members of the groups with
	// parallels, in sorted group order and link order within a group.
	nd := 2 * len(m.Links)
	p := plan{slot: make([]int32, 0, nd)}
	slots := make(map[DirKey]int32, nd)
	type groupAcc struct {
		from, to string
		size     int32
	}
	groupOf := make(map[[2]string]int32)
	var groups []groupAcc // in first-seen order
	dirGroups := make([]int32, 0, nd)
	EachDirection(m, func(dir Direction) {
		k := dir.Key()
		s, ok := slots[k]
		if !ok {
			s = int32(len(p.dirs))
			slots[k] = s
			p.dirs = append(p.dirs, k)
			p.hot = append(p.hot, d.congested[k])
		}
		p.slot = append(p.slot, s)
		g, ok := groupOf[[2]string{dir.From, dir.To}]
		if !ok {
			g = int32(len(groups))
			groupOf[[2]string{dir.From, dir.To}] = g
			groups = append(groups, groupAcc{from: dir.From, to: dir.To})
		}
		groups[g].size++
		dirGroups = append(dirGroups, g)
	})
	order := make([]int32, 0, len(groups))
	for g := range groups {
		if groups[g].size >= 2 { // a group without parallels is never a drain
			order = append(order, int32(g))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := &groups[a], &groups[b]
		if c := strings.Compare(x.from, y.from); c != 0 {
			return c
		}
		return strings.Compare(x.to, y.to)
	})
	var n int32
	for _, g := range order {
		n += groups[g].size
	}
	p.members, p.last = make([]int32, n), make([]wmap.Load, n)
	p.groups = make([]dirGroup, 0, len(order))
	next := make([]int32, len(groups)) // where each group's next member goes
	for i := range next {
		next[i] = -1
	}
	n = 0
	for _, g := range order {
		acc := groups[g]
		prev, ok := oldLast[[2]string{acc.from, acc.to}]
		fresh := !ok || len(prev) != int(acc.size)
		if !fresh {
			copy(p.last[n:], prev)
		}
		p.groups = append(p.groups, dirGroup{from: acc.from, to: acc.to, start: n, end: n + acc.size, fresh: fresh})
		next[g] = n
		n += acc.size
	}
	for di, g := range dirGroups {
		if next[g] >= 0 {
			p.members[next[g]] = int32(di)
			next[g]++
		}
	}

	var names []string
	for _, n := range m.Nodes {
		if n.Kind == wmap.Peering {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		start := int32(len(p.egress))
		for i, l := range m.Links {
			switch name {
			case l.B:
				p.egress = append(p.egress, int32(2*i)) // egress from the backbone side
			case l.A:
				p.egress = append(p.egress, int32(2*i+1))
			}
		}
		if int32(len(p.egress)) == start {
			continue
		}
		tr := d.peers[name]
		if tr == nil {
			tr = &UpgradeTracker{}
			d.peers[name] = tr
		}
		p.peers = append(p.peers, peerPlan{name: name, tr: tr, start: start, end: int32(len(p.egress))})
	}
	d.plan = p
}

// observeLoads runs the load-driven detectors over the snapshot through
// the plan of its topology: congestion hysteresis per direction, the
// make-before-break signature per parallel group, and the upgrade
// trackers per peering, in that order. It also records the loads in the
// detector's copy of the links.
//
//wm:hotpath
func (d *Detector) observeLoads(out []Emitted, m *wmap.Map) []Emitted {
	p, t, links := &d.plan, m.Time, m.Links
	for i := range links {
		d.links[i].LoadAB, d.links[i].LoadBA = links[i].LoadAB, links[i].LoadBA
	}

	for di, s := range p.slot {
		load, hot := dirLoad(links, int32(di)), p.hot[s]
		switch {
		case !hot && load >= d.cfg.CongestionOn:
			p.hot[s] = true
			out = append(out, d.congestionEvent(TypeCongestionOnset, t, p.dirs[s], load))
		case hot && load < d.cfg.CongestionOff:
			p.hot[s] = false
			out = append(out, d.congestionEvent(TypeCongestionClear, t, p.dirs[s], load))
		}
	}

	// Maintenance: within a directed parallel group of unchanged
	// membership, one member's load collapses from >= DrainHigh to <=
	// DrainLow while the siblings' combined load absorbs at least half of
	// what drained.
	for gi := range p.groups {
		g := &p.groups[gi]
		members, last := p.members[g.start:g.end], p.last[g.start:g.end]
		if !g.fresh {
			var sumOld, sumCur int
			for j, di := range members {
				sumOld += int(last[j])
				sumCur += int(dirLoad(links, di))
			}
			for j, di := range members {
				old, cur := last[j], dirLoad(links, di)
				if old < d.cfg.DrainHigh || cur > d.cfg.DrainLow {
					continue
				}
				if 2*(sumCur-int(cur)) < 2*(sumOld-int(old))+int(old) {
					continue // the load vanished instead of moving: not make-before-break
				}
				out = append(out, Emitted{EmitTime: t, Event: Event{
					Map: d.id, Type: TypeMaintenance, Time: t,
					A: g.from, B: g.to, LabelA: dirLabel(links, di), Ordinal: j,
					Load: old,
				}})
			}
		}
		g.fresh = false
		for j, di := range members {
			last[j] = dirLoad(links, di)
		}
	}

	for i := range p.peers {
		pp := &p.peers[i]
		loads := d.egress[:0]
		for _, di := range p.egress[pp.start:pp.end] {
			loads = append(loads, dirLoad(links, di))
		}
		d.egress = loads
		prevCount := pp.tr.prevCount
		addedNow, activatedNow := pp.tr.Observe(t, loads)
		if addedNow {
			out = append(out, d.upgradeEvent(t, pp.name, len(loads)-prevCount))
		}
		if activatedNow {
			pp.tr.Rearm()
		}
	}
	return out
}

// congestionEvent builds a congestion onset or clear of direction k.
func (d *Detector) congestionEvent(ty Type, t time.Time, k DirKey, load wmap.Load) Emitted {
	return Emitted{EmitTime: t, Event: Event{
		Map: d.id, Type: ty, Time: t,
		A: k.From, B: k.To, LabelA: k.Label, Ordinal: k.Ordinal,
		Load: load,
	}}
}

// upgradeEvent builds the upgrade of the peering by delta parallel links,
// confirmed when the PeeringDB announces a capacity change within
// DBWindow of t.
func (d *Detector) upgradeEvent(t time.Time, name string, delta int) Emitted {
	ev := Event{Map: d.id, Type: TypeUpgrade, Time: t, Node: name, Delta: delta}
	if d.db != nil {
		for _, up := range d.db.UpgradesBetween(t.Add(-d.cfg.DBWindow), t.Add(d.cfg.DBWindow)) {
			if up.Peering == name {
				ev.Confirmed = true
				ev.Gbps = up.GbpsAfter
				break
			}
		}
	}
	return Emitted{EmitTime: t, Event: ev}
}
