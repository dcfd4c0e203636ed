// Package netsim synthesizes the OVH-like backbone that stands in for the
// live OVH Network Weathermap. It builds the four backbone maps at their
// July 2020 state, evolves them through a scripted event timeline (router
// additions and removals, stepwise internal link growth, gradual external
// peering growth, the AMS-IX upgrade), and generates per-direction link
// loads with a diurnal profile, ECMP spreading across parallel links, and
// deterministic noise.
//
// Everything is reproducible: the same Scenario yields byte-identical map
// snapshots, which the rest of the pipeline (renderer, collector, extractor,
// analyses) treats exactly as the paper treats the real weather map.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"ovhweather/internal/wmap"
)

// Simulator evolves a Scenario and materializes weather-map snapshots.
// It is optimized for chronological access: stepping forward applies only
// the events in between, while jumping backward rebuilds from the initial
// state. A Simulator is not safe for concurrent use.
type Simulator struct {
	sc       Scenario
	states   map[wmap.MapID]*mapState
	events   map[wmap.MapID][]Event // sorted by time
	done     map[wmap.MapID]int     // events already applied
	cursor   map[wmap.MapID]time.Time
	borrowed map[wmap.MapID][]string // resolved at construction, reused on rebuilds
}

// New builds a simulator with all maps at their Scenario.Start state.
// The scenario is validated first; maps are then built in dependency order
// so that Borrow references resolve.
func New(sc Scenario) (*Simulator, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		sc:       sc,
		states:   make(map[wmap.MapID]*mapState),
		events:   make(map[wmap.MapID][]Event),
		done:     make(map[wmap.MapID]int),
		cursor:   make(map[wmap.MapID]time.Time),
		borrowed: make(map[wmap.MapID][]string),
	}
	pending := append([]MapScenario(nil), sc.Maps...)
	built := make(map[wmap.MapID]bool)
	for len(pending) > 0 {
		progressed := false
		var next []MapScenario
		for _, msc := range pending {
			ready := true
			for src := range msc.Borrow {
				if !built[src] {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, msc)
				continue
			}
			borrowed, err := s.resolveBorrow(msc)
			if err != nil {
				return nil, err
			}
			s.borrowed[msc.ID] = borrowed
			st, err := newMapState(msc, borrowed, sc.Traffic)
			if err != nil {
				return nil, err
			}
			evs := append([]Event(nil), msc.Events...)
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
			s.states[msc.ID] = st
			s.events[msc.ID] = evs
			s.cursor[msc.ID] = sc.Start
			built[msc.ID] = true
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("netsim: circular Borrow dependency among maps")
		}
		pending = next
	}
	return s, nil
}

// resolveBorrow picks stable router names from already-built source maps.
func (s *Simulator) resolveBorrow(msc MapScenario) ([]string, error) {
	if len(msc.Borrow) == 0 {
		return nil, nil
	}
	srcs := make([]wmap.MapID, 0, len(msc.Borrow))
	for src := range msc.Borrow {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	var out []string
	for _, src := range srcs {
		st, ok := s.states[src]
		if !ok {
			return nil, fmt.Errorf("netsim: map %s borrows from unbuilt map %s", msc.ID, src)
		}
		n := msc.Borrow[src]
		// Own core routers never appear in addedPool and are never removed,
		// so they are safe to display on several maps for the whole run.
		// The lending cursor keeps successive borrowers disjoint: without
		// it, the World map would receive the same gateway routers from
		// every region and collapse under deduplication.
		if st.lent+n > len(st.ownCore) {
			return nil, fmt.Errorf("netsim: map %s borrows %d routers from %s, only %d own-core available",
				msc.ID, n, src, len(st.ownCore)-st.lent)
		}
		out = append(out, st.ownCore[st.lent:st.lent+n]...)
		st.lent += n
	}
	return out, nil
}

// Scenario returns the simulator's configuration.
func (s *Simulator) Scenario() Scenario { return s.sc }

// MapAt returns the snapshot of map id at time t, with loads. Moving
// backward in time rebuilds the map's state from scratch.
func (s *Simulator) MapAt(id wmap.MapID, t time.Time) (*wmap.Map, error) {
	if _, ok := s.states[id]; !ok {
		return nil, fmt.Errorf("netsim: map %s not in scenario", id)
	}
	if t.Before(s.cursor[id]) {
		// Rebuild from the initial state, reusing the borrow resolution
		// from construction: re-resolving would advance the source map's
		// lending cursor and hand this map different routers than the
		// original build received.
		msc, _ := s.sc.MapScenario(id)
		st, err := newMapState(msc, s.borrowed[id], s.sc.Traffic)
		if err != nil {
			return nil, err
		}
		s.states[id] = st
		s.done[id] = 0
		s.cursor[id] = s.sc.Start
	}
	evs := s.events[id]
	i := s.done[id]
	for i < len(evs) && !evs[i].Time.After(t) {
		if err := s.states[id].apply(evs[i]); err != nil {
			return nil, fmt.Errorf("netsim: applying %s event at %s: %w", evs[i].Kind, evs[i].Time, err)
		}
		i++
	}
	s.done[id] = i
	s.cursor[id] = t
	return s.states[id].render(t, s.sc.Traffic, s.sc.Start), nil
}

// SnapshotAt returns all maps at time t, in scenario order.
func (s *Simulator) SnapshotAt(t time.Time) ([]*wmap.Map, error) {
	out := make([]*wmap.Map, 0, len(s.sc.Maps))
	for _, msc := range s.sc.Maps {
		m, err := s.MapAt(msc.ID, t)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// render materializes the weather-map view of the state at time t.
func (st *mapState) render(t time.Time, p TrafficParams, start time.Time) *wmap.Map {
	m := &wmap.Map{ID: st.sc.ID, Time: t}
	for _, name := range st.order {
		m.Nodes = append(m.Nodes, wmap.Node{Name: name, Kind: st.nodes[name]})
	}
	day := Diurnal(t) * p.weekday(t) * p.growth(t, start)
	for _, g := range st.groups {
		active := g.activeCount()
		demandScaleA, demandScaleB := 0.0, 0.0
		if active > 0 {
			gNoise := 1 + p.GroupNoise*smoothNoise(g.noiseSeed, t)
			if gNoise < 0.2 {
				gNoise = 0.2
			}
			scale := day * gNoise * float64(g.baseCount) / float64(active)
			demandScaleA = g.demandA * scale
			demandScaleB = g.demandB * scale
		}
		jitter := p.InternalJitter
		if !g.internal {
			jitter = p.ExternalJitter
		}
		for i, l := range g.links {
			label := "#" + strconv.Itoa(i+1)
			if g.dupLabels {
				label = "#1"
			}
			link := wmap.Link{A: g.a, B: g.b, LabelA: label, LabelB: label}
			if l.active {
				jA := 1 + jitter*smoothNoise(l.jitterSeed, t)
				jB := 1 + jitter*smoothNoise(l.jitterSeed^0xABCD, t)
				link.LoadAB = clampLoad(demandScaleA * jA)
				link.LoadBA = clampLoad(demandScaleB * jB)
			}
			m.Links = append(m.Links, link)
		}
	}
	return m
}

// clampLoad rounds to the displayed integer percentage and clips to the
// weather map's [0, 100] range.
func clampLoad(v float64) wmap.Load {
	l := wmap.Load(math.Round(v))
	if l < 0 {
		return 0
	}
	if l > 100 {
		return 100
	}
	return l
}
