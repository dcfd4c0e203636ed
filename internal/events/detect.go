package events

import (
	"slices"
	"sort"
	"time"

	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// ChurnTracker diffs consecutive snapshots of one map, for the offline
// ChurnStudy and PathStabilityStudy folds and the live Detector. It keeps
// the last snapshot's topology and loads, never the caller's map, so that
// map may be a view the next snapshot overwrites, and runs wmap.Compare
// only when the topology no longer matches. The loads make the diff,
// LoadChanges included, the one between the two snapshots.
type ChurnTracker struct {
	topo  *wmap.Topology
	loads []wmap.Load // link i's AB load at 2i, BA at 2i+1
}

// Observe feeds the next snapshot. It returns the topology diff from the
// previous one, or nil when this is the first snapshot or nothing beyond
// loads changed, and whether the skeleton changed (true for the first
// snapshot).
func (c *ChurnTracker) Observe(m *wmap.Map) (diff *wmap.Diff, changed bool) {
	if changed = !c.topo.Matches(m); changed {
		if c.topo != nil {
			last := &wmap.Map{Nodes: c.topo.Nodes(), Links: slices.Clone(c.topo.Links())}
			for i := range last.Links {
				last.Links[i].LoadAB, last.Links[i].LoadBA = c.loads[2*i], c.loads[2*i+1]
			}
			if d := wmap.Compare(last, m); !d.Empty() {
				diff = d
			}
		}
		c.topo = m.Topology()
	}
	c.loads = c.loads[:0]
	for i := range m.Links {
		c.loads = append(c.loads, m.Links[i].LoadAB, m.Links[i].LoadBA)
	}
	return diff, changed
}

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
// resolves each topology once into a plan over the wmap.Topology its
// ChurnTracker matches every snapshot against. A snapshot with an
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

	churn ChurnTracker
	plan  plan

	pending map[churnKey]*pendingChurn
	// congested is the hysteresis state of directions outside the plan:
	// a direction that vanished while congested stays so until it returns.
	congested map[wmap.DirKey]bool
	peers     map[string]*UpgradeTracker
	egress    []wmap.Load // scratch for UpgradeTracker.Observe
}

// plan is the detectors' state over the churn tracker's topology.
type plan struct {
	// Congestion: every direction's slot in hot. Directions with equal
	// keys share a slot, as they share one map entry by key.
	slot []int32
	hot  []bool

	// Maintenance: last holds the loads of the ParallelSets() at the
	// previous snapshot, back to back in their order; fresh marks a set
	// whose previous snapshot had no set of the same key and size, so the
	// drain signature has nothing to match.
	last  []wmap.Load
	fresh []bool

	// Upgrades: the tracker of each of the Peerings().
	trackers []*UpgradeTracker
}

// NewDetector returns a detector for one map. db may be nil, in which
// case upgrade events are never Confirmed.
func NewDetector(id wmap.MapID, cfg Config, db *peeringdb.DB) *Detector {
	return &Detector{
		id:        id,
		cfg:       cfg,
		db:        db,
		pending:   make(map[churnKey]*pendingChurn),
		congested: make(map[wmap.DirKey]bool),
		peers:     make(map[string]*UpgradeTracker),
	}
}

// Observe feeds the next snapshot and returns the newly final events.
// The returned slice is freshly allocated and owned by the caller; it is
// nil when nothing became final.
func (d *Detector) Observe(m *wmap.Map) []Emitted {
	old := d.churn.topo
	diff, changed := d.churn.Observe(m)
	out := d.observeChurn(nil, m.Time, diff)
	if changed {
		d.replan(old, d.churn.topo)
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

// replan moves the detectors' state from topology prev (nil at first) to
// t. Congestion state moves over by DirKey, through d.congested; a
// maintenance set keeps the previous snapshot's loads of the set with its
// key when that set had the same size; upgrade trackers by peering name.
func (d *Detector) replan(prev, t *wmap.Topology) {
	old := &d.plan
	oldLast := make(map[[2]string][]wmap.Load)
	if prev != nil {
		for di, s := range old.slot {
			if k := prev.Keys()[di]; old.hot[s] {
				d.congested[k] = true
			} else {
				delete(d.congested, k)
			}
		}
		last := old.last
		for _, g := range prev.ParallelSets() {
			oldLast[[2]string{g.From, g.To}], last = last[:len(g.Dirs)], last[len(g.Dirs):]
		}
	}

	sets, peers := t.ParallelSets(), t.Peerings()
	p := plan{
		slot:     make([]int32, len(t.Keys())),
		hot:      make([]bool, 0, len(t.Keys())),
		last:     make([]wmap.Load, 0, len(t.Keys())),
		fresh:    make([]bool, len(sets)),
		trackers: make([]*UpgradeTracker, len(peers)),
	}
	slots := make(map[wmap.DirKey]int32, len(t.Keys()))
	for di, k := range t.Keys() {
		s, ok := slots[k]
		if !ok {
			s = int32(len(p.hot))
			slots[k] = s
			p.hot = append(p.hot, d.congested[k])
		}
		p.slot[di] = s
	}
	for i, g := range sets {
		n := len(p.last)
		p.last = append(p.last, make([]wmap.Load, len(g.Dirs))...)
		prev, ok := oldLast[[2]string{g.From, g.To}]
		if p.fresh[i] = !ok || len(prev) != len(g.Dirs); !p.fresh[i] {
			copy(p.last[n:], prev)
		}
	}
	for i, pe := range peers {
		if d.peers[pe.Name] == nil {
			d.peers[pe.Name] = &UpgradeTracker{}
		}
		p.trackers[i] = d.peers[pe.Name]
	}
	d.plan = p
}

// observeLoads runs the load-driven detectors over the snapshot through
// the plan of its topology: congestion hysteresis per direction, the
// make-before-break signature per parallel set, and the upgrade trackers
// per peering, in that order.
//
//wm:hotpath
func (d *Detector) observeLoads(out []Emitted, m *wmap.Map) []Emitted {
	p, t, links, topo := &d.plan, m.Time, m.Links, d.churn.topo
	keys := topo.Keys()

	for di, s := range p.slot {
		load, hot := wmap.DirLoad(links, int32(di)), p.hot[s]
		switch {
		case !hot && load >= d.cfg.CongestionOn:
			p.hot[s] = true
			out = append(out, d.congestionEvent(TypeCongestionOnset, t, keys[di], load))
		case hot && load < d.cfg.CongestionOff:
			p.hot[s] = false
			out = append(out, d.congestionEvent(TypeCongestionClear, t, keys[di], load))
		}
	}

	// Maintenance: within a directed parallel set of unchanged
	// membership, one member's load collapses from >= DrainHigh to <=
	// DrainLow while the siblings' combined load absorbs at least half of
	// what drained.
	rest := p.last
	for gi, g := range topo.ParallelSets() {
		members, last := g.Dirs, rest[:len(g.Dirs)]
		rest = rest[len(g.Dirs):]
		if !p.fresh[gi] {
			var sumOld, sumCur int
			for j, di := range members {
				sumOld += int(last[j])
				sumCur += int(wmap.DirLoad(links, di))
			}
			for j, di := range members {
				old, cur := last[j], wmap.DirLoad(links, di)
				if old < d.cfg.DrainHigh || cur > d.cfg.DrainLow {
					continue
				}
				if 2*(sumCur-int(cur)) < 2*(sumOld-int(old))+int(old) {
					continue // the load vanished instead of moving: not make-before-break
				}
				out = append(out, Emitted{EmitTime: t, Event: Event{
					Map: d.id, Type: TypeMaintenance, Time: t,
					A: g.From, B: g.To, LabelA: keys[di].Label, Ordinal: j,
					Load: old,
				}})
			}
		}
		p.fresh[gi] = false
		for j, di := range members {
			last[j] = wmap.DirLoad(links, di)
		}
	}

	for i, pe := range topo.Peerings() {
		tr := p.trackers[i]
		loads := d.egress[:0]
		for _, di := range pe.Dirs {
			loads = append(loads, wmap.DirLoad(links, di))
		}
		d.egress = loads
		prevCount := tr.prevCount
		addedNow, activatedNow := tr.Observe(t, loads)
		if addedNow {
			out = append(out, d.upgradeEvent(t, pe.Name, len(loads)-prevCount))
		}
		if activatedNow {
			tr.Rearm()
		}
	}
	return out
}

// congestionEvent builds a congestion onset or clear of direction k.
func (d *Detector) congestionEvent(ty Type, t time.Time, k wmap.DirKey, load wmap.Load) Emitted {
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
