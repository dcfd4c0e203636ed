package events

import (
	"sort"
	"time"

	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// refMaintGroup is the previous snapshot's load vector of one directed
// parallel group, the state the make-before-break signature is matched
// against.
type refMaintGroup struct {
	labels []string
	loads  []wmap.Load
}

// Direction is one directed load reading of one physical link: endpoints,
// the label on the from side, and the link's position among the parallels
// between the same endpoints.
type Direction struct {
	From, To string
	Label    string
	Ordinal  int
	Load     wmap.Load
}

// EachDirection visits both directions of every link of a snapshot in
// link slice order, assigning parallel ordinals the way the congestion
// fold always has: the ordinal counter for an endpoint pair advances once
// per physical link, in both orientations.
func EachDirection(m *wmap.Map, fn func(Direction)) {
	ordinals := make(map[[2]string]int)
	for _, l := range m.Links {
		fn(Direction{From: l.A, To: l.B, Label: l.LabelA, Ordinal: ordinals[[2]string{l.A, l.B}], Load: l.LoadAB})
		fn(Direction{From: l.B, To: l.A, Label: l.LabelB, Ordinal: ordinals[[2]string{l.B, l.A}], Load: l.LoadBA})
		ordinals[[2]string{l.A, l.B}]++
		ordinals[[2]string{l.B, l.A}]++
	}
}

// Key returns the cross-snapshot identity of the direction.
func (d Direction) Key() wmap.DirKey {
	return wmap.DirKey{From: d.From, To: d.To, Label: d.Label, Ordinal: d.Ordinal}
}

// referenceDetector is the detector as it was before plans: it keeps
// the previous snapshot, diffs every pair of snapshots with wmap.Compare,
// and walks every snapshot's directions through string-keyed maps. It is
// the contract Detector is held to (TestDetectorMatchesReference,
// FuzzDetectorDifferential).
type referenceDetector struct {
	id  wmap.MapID
	cfg Config
	db  *peeringdb.DB

	prev      *wmap.Map
	pending   map[churnKey]*pendingChurn
	congested map[wmap.DirKey]bool
	maint     map[[2]string]*refMaintGroup
	peers     map[string]*UpgradeTracker
}

// newReferenceDetector is NewDetector for the reference.
func newReferenceDetector(id wmap.MapID, cfg Config, db *peeringdb.DB) *referenceDetector {
	return &referenceDetector{
		id:        id,
		cfg:       cfg,
		db:        db,
		pending:   make(map[churnKey]*pendingChurn),
		congested: make(map[wmap.DirKey]bool),
		maint:     make(map[[2]string]*refMaintGroup),
		peers:     make(map[string]*UpgradeTracker),
	}
}

// Observe feeds the next snapshot and returns the newly final events.
// The returned slice is freshly allocated and owned by the caller.
func (d *referenceDetector) Observe(m *wmap.Map) []Emitted {
	var out []Emitted
	prev := d.prev
	d.prev = m
	var diff *wmap.Diff
	if prev != nil {
		if df := wmap.Compare(prev, m); !df.Empty() {
			diff = df
		}
	}
	out = d.observeChurn(out, m.Time, diff)
	out = d.observeCongestion(out, m)
	out = d.observeMaintenance(out, prev, m)
	out = d.observeUpgrades(out, m)
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
func (d *referenceDetector) observeChurn(out []Emitted, t time.Time, diff *wmap.Diff) []Emitted {
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

// observeCongestion applies the hysteresis thresholds to every direction.
func (d *referenceDetector) observeCongestion(out []Emitted, m *wmap.Map) []Emitted {
	EachDirection(m, func(dir Direction) {
		k := dir.Key()
		hot := d.congested[k]
		switch {
		case !hot && dir.Load >= d.cfg.CongestionOn:
			d.congested[k] = true
			out = append(out, Emitted{EmitTime: m.Time, Event: Event{
				Map: d.id, Type: TypeCongestionOnset, Time: m.Time,
				A: dir.From, B: dir.To, LabelA: dir.Label, Ordinal: dir.Ordinal,
				Load: dir.Load,
			}})
		case hot && dir.Load < d.cfg.CongestionOff:
			delete(d.congested, k)
			out = append(out, Emitted{EmitTime: m.Time, Event: Event{
				Map: d.id, Type: TypeCongestionClear, Time: m.Time,
				A: dir.From, B: dir.To, LabelA: dir.Label, Ordinal: dir.Ordinal,
				Load: dir.Load,
			}})
		}
	})
	return out
}

// observeMaintenance matches the make-before-break signature: within a
// directed parallel group of unchanged membership, one member's load
// collapses from >= DrainHigh to <= DrainLow while the siblings' combined
// load absorbs at least half of what drained.
func (d *referenceDetector) observeMaintenance(out []Emitted, prev, m *wmap.Map) []Emitted {
	groups := make(map[[2]string]*refMaintGroup)
	EachDirection(m, func(dir Direction) {
		k := [2]string{dir.From, dir.To}
		g := groups[k]
		if g == nil {
			g = &refMaintGroup{}
			groups[k] = g
		}
		g.labels = append(g.labels, dir.Label)
		g.loads = append(g.loads, dir.Load)
	})
	if prev != nil {
		keys := make([][2]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			cur, old := groups[k], d.maint[k]
			if old == nil || len(old.loads) != len(cur.loads) || len(cur.loads) < 2 {
				continue // membership changed (or no parallels): not a drain
			}
			var sumOld, sumCur int
			for i := range cur.loads {
				sumOld += int(old.loads[i])
				sumCur += int(cur.loads[i])
			}
			for i := range cur.loads {
				if old.loads[i] < d.cfg.DrainHigh || cur.loads[i] > d.cfg.DrainLow {
					continue
				}
				othersOld := sumOld - int(old.loads[i])
				othersCur := sumCur - int(cur.loads[i])
				if 2*othersCur < 2*othersOld+int(old.loads[i]) {
					continue // the load vanished instead of moving: not make-before-break
				}
				out = append(out, Emitted{EmitTime: m.Time, Event: Event{
					Map: d.id, Type: TypeMaintenance, Time: m.Time,
					A: k[0], B: k[1], LabelA: cur.labels[i], Ordinal: i,
					Load: old.loads[i],
				}})
			}
		}
	}
	d.maint = groups
	return out
}

// observeUpgrades advances the per-peering trackers.
func (d *referenceDetector) observeUpgrades(out []Emitted, m *wmap.Map) []Emitted {
	names := make([]string, 0, 4)
	for _, n := range m.Nodes {
		if n.Kind == wmap.Peering {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	var loads []wmap.Load
	for _, name := range names {
		loads = loads[:0]
		for _, l := range m.Links {
			switch name {
			case l.B:
				loads = append(loads, l.LoadAB) // egress from the backbone side
			case l.A:
				loads = append(loads, l.LoadBA)
			}
		}
		if len(loads) == 0 {
			continue
		}
		tr := d.peers[name]
		if tr == nil {
			tr = &UpgradeTracker{}
			d.peers[name] = tr
		}
		prevCount := tr.prevCount
		addedNow, activatedNow := tr.Observe(m.Time, loads)
		if addedNow {
			ev := Event{
				Map: d.id, Type: TypeUpgrade, Time: m.Time,
				Node: name, Delta: len(loads) - prevCount,
			}
			if d.db != nil {
				for _, up := range d.db.UpgradesBetween(m.Time.Add(-d.cfg.DBWindow), m.Time.Add(d.cfg.DBWindow)) {
					if up.Peering == name {
						ev.Confirmed = true
						ev.Gbps = up.GbpsAfter
						break
					}
				}
			}
			out = append(out, Emitted{EmitTime: m.Time, Event: ev})
		}
		if activatedNow {
			tr.Rearm()
		}
	}
	return out
}
