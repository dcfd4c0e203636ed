package netsim

import (
	"testing"
	"time"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

func mustSim(t *testing.T) (*Simulator, Scenario) {
	t.Helper()
	sc := DefaultScenario()
	sim, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sim, sc
}

func mustMap(t *testing.T, sim *Simulator, id wmap.MapID, at time.Time) *wmap.Map {
	t.Helper()
	m, err := sim.MapAt(id, at)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Table 1: exact per-map sizes and the router-dedup total on 2022-09-12.
func TestTable1EndState(t *testing.T) {
	sim, sc := mustSim(t)
	maps, err := sim.SnapshotAt(sc.End)
	if err != nil {
		t.Fatal(err)
	}
	want := map[wmap.MapID][3]int{
		wmap.Europe:       {113, 744, 265},
		wmap.World:        {16, 76, 0},
		wmap.NorthAmerica: {60, 407, 214},
		wmap.AsiaPacific:  {23, 96, 39},
	}
	rows, total := wmap.SummarizeAll(maps)
	for _, r := range rows {
		w := want[r.MapID]
		if r.Routers != w[0] || r.Internal != w[1] || r.External != w[2] {
			t.Errorf("%s: got %d/%d/%d, want %d/%d/%d",
				r.MapID, r.Routers, r.Internal, r.External, w[0], w[1], w[2])
		}
	}
	if total.Routers != 181 {
		t.Errorf("total routers = %d, want 181 (dedup across maps)", total.Routers)
	}
	if total.External != 518 {
		t.Errorf("total external = %d, want 518", total.External)
	}
}

// Figure 4a: the Europe router count trajectory.
func TestFig4aRouterTrajectory(t *testing.T) {
	sim, sc := mustSim(t)
	checks := []struct {
		at   time.Time
		want int
	}{
		{sc.Start, 111},
		{date(2020, time.September, 15), 121}, // after +10 make-before-break
		{date(2020, time.October, 10), 117},   // −4 decommissioned
		{date(2021, time.June, 20), 113},      // −4 more
		{date(2021, time.August, 15), 109},    // maintenance dip
		{date(2021, time.August, 30), 113},    // restored
		{sc.End, 113},
	}
	for _, c := range checks {
		m := mustMap(t, sim, wmap.Europe, c.at)
		if got := len(m.Routers()); got != c.want {
			t.Errorf("routers at %s = %d, want %d", c.at.Format("2006-01-02"), got, c.want)
		}
	}
}

// Figure 4b: internal growth is stepwise with a large November 2021 step;
// external growth is gradual and monotonic.
func TestFig4bLinkTrajectories(t *testing.T) {
	sim, _ := mustSim(t)
	before := mustMap(t, sim, wmap.Europe, date(2021, time.November, 5))
	after := mustMap(t, sim, wmap.Europe, date(2021, time.November, 12))
	step := len(after.InternalLinks()) - len(before.InternalLinks())
	if step < 30 {
		t.Errorf("November 2021 internal step = %d, want >= 30", step)
	}

	prevExt := -1
	for m := 0; m < 26; m++ {
		at := date(2020, time.July, 15).AddDate(0, m, 0)
		mm := mustMap(t, sim, wmap.Europe, at)
		ext := len(mm.ExternalLinks())
		if ext < prevExt {
			t.Errorf("external links shrank at %s: %d -> %d", at.Format("2006-01"), prevExt, ext)
		}
		prevExt = ext
	}
}

// Figure 4c: >20 % of Europe routers have degree 1 and >20 % have degree
// above 20 (parallel links counted).
func TestFig4cDegreeShape(t *testing.T) {
	sim, sc := mustSim(t)
	m := mustMap(t, sim, wmap.Europe, sc.End)
	degs := m.RouterDegrees()
	var d1, d20 int
	for _, d := range degs {
		if d == 1 {
			d1++
		}
		if d > 20 {
			d20++
		}
		if d == 0 {
			t.Error("router with degree 0 on rendered map")
		}
	}
	n := float64(len(degs))
	if f := float64(d1) / n; f <= 0.20 {
		t.Errorf("degree-1 fraction = %.2f, want > 0.20", f)
	}
	if f := float64(d20) / n; f <= 0.20 {
		t.Errorf("degree>20 fraction = %.2f, want > 0.20", f)
	}
}

// Figure 5a: the diurnal curve bottoms between 2 and 4 a.m. and peaks
// between 7 and 9 p.m.
func TestFig5aDiurnalShape(t *testing.T) {
	minH, maxH := -1, -1
	minV, maxV := 99.0, 0.0
	for h := 0; h < 24; h++ {
		v := Diurnal(time.Date(2021, 1, 5, h, 0, 0, 0, time.UTC))
		if v < minV {
			minV, minH = v, h
		}
		if v > maxV {
			maxV, maxH = v, h
		}
	}
	if minH < 2 || minH > 4 {
		t.Errorf("diurnal minimum at %dh, want within [2, 4]", minH)
	}
	if maxH < 19 || maxH > 21 {
		t.Errorf("diurnal maximum at %dh, want within [19, 21]", maxH)
	}
	if maxV <= minV {
		t.Error("flat diurnal curve")
	}
}

func TestDiurnalContinuity(t *testing.T) {
	prev := Diurnal(time.Date(2021, 1, 5, 0, 0, 0, 0, time.UTC))
	for m := 5; m <= 24*60; m += 5 {
		at := time.Date(2021, 1, 5, 0, 0, 0, 0, time.UTC).Add(time.Duration(m) * time.Minute)
		v := Diurnal(at)
		if d := v - prev; d > 0.02 || d < -0.02 {
			t.Fatalf("diurnal jump of %v at %s", d, at)
		}
		prev = v
	}
}

// Figure 5b: load distribution shape — 75 % of loads below 33 %, very few
// above 60 %, external mean below internal mean.
func TestFig5bLoadDistribution(t *testing.T) {
	sim, sc := mustSim(t)
	var intS, extS, all stats.PercentHist
	for day := 0; day < 28; day += 4 {
		for _, hr := range []int{3, 9, 15, 20} {
			at := sc.Start.AddDate(0, 8, day).Add(time.Duration(hr) * time.Hour)
			m := mustMap(t, sim, wmap.Europe, at)
			for _, l := range m.Links {
				s := &extS
				if l.Internal() {
					s = &intS
				}
				for _, h := range []*stats.PercentHist{s, &all} {
					h.Add(int(l.LoadAB))
					h.Add(int(l.LoadBA))
				}
			}
		}
	}
	p75, err := all.Percentile(75)
	if err != nil {
		t.Fatal(err)
	}
	if p75 >= 33 {
		t.Errorf("p75 = %.1f, want < 33", p75)
	}
	fg, _ := all.FractionGreater(60)
	if fg > 0.03 {
		t.Errorf("fraction of loads > 60%% = %.3f, want rare (< 0.03)", fg)
	}
	if fg == 0 {
		t.Error("no loads above 60% at all; the paper observes a few")
	}
	im, _ := intS.Mean()
	em, _ := extS.Mean()
	if em >= im {
		t.Errorf("external mean %.1f >= internal mean %.1f; paper reports external lower", em, im)
	}
}

// Figure 5c: with the paper's filters, >60 % of internal imbalances are <=1
// and >90 % of external imbalances are <=2, with external tighter overall.
func TestFig5cImbalanceShape(t *testing.T) {
	sim, sc := mustSim(t)
	var intLE1, intN, extLE2, extN int
	for day := 0; day < 20; day += 5 {
		m := mustMap(t, sim, wmap.Europe, sc.Start.AddDate(0, 3, day).Add(14*time.Hour))
		for _, im := range wmap.NewTopology(nil, m.Links).Imbalances(m.Links, wmap.PaperImbalanceOptions()) {
			if im.Internal {
				intN++
				if im.Spread <= 1 {
					intLE1++
				}
			} else {
				extN++
				if im.Spread <= 2 {
					extLE2++
				}
			}
		}
	}
	if intN == 0 || extN == 0 {
		t.Fatalf("no imbalance sets (internal %d, external %d)", intN, extN)
	}
	if f := float64(intLE1) / float64(intN); f <= 0.60 {
		t.Errorf("internal imbalance <=1 fraction = %.2f, want > 0.60", f)
	}
	if f := float64(extLE2) / float64(extN); f <= 0.90 {
		t.Errorf("external imbalance <=2 fraction = %.2f, want > 0.90", f)
	}
}

// Figure 6: the AMS-IX upgrade sequence — 4 loaded links, then a 5th at 0 %,
// then all 5 loaded with per-link load reduced by roughly 4/5.
func TestFig6UpgradeSequence(t *testing.T) {
	sim, sc := mustSim(t)
	loadsAt := func(at time.Time) []wmap.Load {
		m := mustMap(t, sim, wmap.Europe, at)
		var out []wmap.Load
		for _, l := range m.Links {
			if l.B == sc.Upgrade.Peering {
				out = append(out, l.LoadAB)
			}
		}
		return out
	}
	pre := loadsAt(sc.Upgrade.Added.AddDate(0, 0, -2).Add(14 * time.Hour))
	if len(pre) != sc.Upgrade.LinksBefore {
		t.Fatalf("pre-upgrade links = %d, want %d", len(pre), sc.Upgrade.LinksBefore)
	}
	mid := loadsAt(sc.Upgrade.Added.AddDate(0, 0, 2).Add(14 * time.Hour))
	if len(mid) != sc.Upgrade.LinksBefore+1 {
		t.Fatalf("post-A links = %d, want %d", len(mid), sc.Upgrade.LinksBefore+1)
	}
	zeros := 0
	for _, l := range mid {
		if l == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Errorf("post-A zero-load links = %d, want exactly 1 (added but unused)", zeros)
	}
	post := loadsAt(sc.Upgrade.Activated.AddDate(0, 0, 2).Add(14 * time.Hour))
	for _, l := range post {
		if l == 0 {
			t.Error("post-C link still unused")
		}
	}
	// Compare week-long averages at a fixed hour so weekday and group-noise
	// effects cancel; the drop should track the 4->5 parallelism change.
	weekMean := func(from time.Time) float64 {
		var sum float64
		var n int
		for d := 0; d < 7; d++ {
			for _, l := range loadsAt(from.AddDate(0, 0, d).Add(14 * time.Hour)) {
				if l > 0 {
					sum += float64(l)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	preMean := weekMean(sc.Upgrade.Added.AddDate(0, 0, -8))
	postMean := weekMean(sc.Upgrade.Activated.AddDate(0, 0, 1))
	ratio := postMean / preMean
	want := float64(sc.Upgrade.LinksBefore) / float64(sc.Upgrade.LinksBefore+1)
	if ratio < want-0.08 || ratio > want+0.08 {
		t.Errorf("post/pre load ratio = %.2f, want ~%.2f (capacity %d->%d Gbps)",
			ratio, want, sc.Upgrade.GbpsBefore, sc.Upgrade.GbpsAfter)
	}
}

func TestDeterminism(t *testing.T) {
	simA, sc := mustSim(t)
	simB, _ := mustSim(t)
	for _, at := range []time.Time{sc.Start, sc.Start.AddDate(0, 13, 3).Add(7 * time.Hour)} {
		for _, id := range wmap.AllMaps() {
			a := mustMap(t, simA, id, at)
			b := mustMap(t, simB, id, at)
			if len(a.Links) != len(b.Links) || len(a.Nodes) != len(b.Nodes) {
				t.Fatalf("%s at %s: sizes differ", id, at)
			}
			for i := range a.Links {
				if a.Links[i] != b.Links[i] {
					t.Fatalf("%s at %s: link %d differs: %+v vs %+v", id, at, i, a.Links[i], b.Links[i])
				}
			}
		}
	}
}

func TestBackwardJumpRebuilds(t *testing.T) {
	simA, sc := mustSim(t)
	early := sc.Start.AddDate(0, 2, 0).Add(10 * time.Hour)
	late := sc.Start.AddDate(0, 20, 0).Add(10 * time.Hour)
	mustMap(t, simA, wmap.Europe, late)
	back := mustMap(t, simA, wmap.Europe, early)

	simB, _ := mustSim(t)
	fresh := mustMap(t, simB, wmap.Europe, early)
	if len(back.Links) != len(fresh.Links) {
		t.Fatalf("backward jump: %d links vs fresh %d", len(back.Links), len(fresh.Links))
	}
	for i := range back.Links {
		if back.Links[i] != fresh.Links[i] {
			t.Fatalf("backward jump diverged at link %d: %+v vs %+v", i, back.Links[i], fresh.Links[i])
		}
	}
}

func TestRenderedMapsValidate(t *testing.T) {
	sim, sc := mustSim(t)
	for _, at := range []time.Time{sc.Start, date(2021, time.August, 15), sc.End} {
		for _, id := range wmap.AllMaps() {
			m := mustMap(t, sim, id, at)
			if err := m.Validate(); err != nil {
				t.Errorf("%s at %s: %v", id, at.Format("2006-01-02"), err)
			}
		}
	}
}

func TestInactiveLinkShowsZeroLoad(t *testing.T) {
	sim, sc := mustSim(t)
	at := sc.Upgrade.Added.AddDate(0, 0, 5).Add(12 * time.Hour)
	m := mustMap(t, sim, wmap.Europe, at)
	var zero int
	for _, l := range m.Links {
		if l.B == sc.Upgrade.Peering && l.LoadAB == 0 && l.LoadBA == 0 {
			zero++
		}
	}
	if zero != 1 {
		t.Errorf("disabled links toward %s = %d, want 1", sc.Upgrade.Peering, zero)
	}
}

func TestDupLabelGroupsExist(t *testing.T) {
	sim, sc := mustSim(t)
	m := mustMap(t, sim, wmap.Europe, sc.Start)
	found := false
	topo := wmap.NewTopology(m.Nodes, m.Links)
	for _, g := range topo.ParallelSets() {
		labels := make(map[string]int)
		for _, di := range g.Dirs {
			labels[topo.Keys()[di].Label]++
		}
		for _, n := range labels {
			if n > 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no group with duplicate labels; the paper observes non-unique labels (VODAFONE)")
	}
}

func TestWeekendFactor(t *testing.T) {
	p := DefaultTrafficParams()
	sat := time.Date(2021, 3, 6, 12, 0, 0, 0, time.UTC)
	wed := time.Date(2021, 3, 3, 12, 0, 0, 0, time.UTC)
	if p.weekday(sat) >= p.weekday(wed) {
		t.Error("weekend factor should be below weekday factor")
	}
}

func TestGrowthMonotone(t *testing.T) {
	p := DefaultTrafficParams()
	start := date(2020, time.July, 1)
	prev := 0.0
	for m := 0; m < 27; m++ {
		g := p.growth(start.AddDate(0, m, 0), start)
		if g < prev {
			t.Fatalf("growth not monotone at month %d", m)
		}
		prev = g
	}
	if g := p.growth(start.AddDate(0, -1, 0), start); g != 1 {
		t.Errorf("growth before start = %v, want 1", g)
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	at := time.Date(2021, 5, 4, 10, 17, 0, 0, time.UTC)
	a := smoothNoise(12345, at)
	b := smoothNoise(12345, at)
	if a != b {
		t.Error("smoothNoise not deterministic")
	}
	if c := smoothNoise(54321, at); c == a {
		t.Error("smoothNoise insensitive to seed")
	}
	for i := 0; i < 1000; i++ {
		v := smoothNoise(uint64(i), at)
		if v < -3.5 || v > 3.5 {
			t.Fatalf("noise out of expected range: %v", v)
		}
	}
}

func TestMapAtUnknownMap(t *testing.T) {
	sim, sc := mustSim(t)
	if _, err := sim.MapAt(wmap.MapID("mars"), sc.Start); err == nil {
		t.Error("unknown map should error")
	}
}

func TestNamePoolUniqueRouters(t *testing.T) {
	sim, _ := mustSim(t)
	_ = sim
	// Router names must be unique within a map across its whole lifetime.
	sc := DefaultScenario()
	sim2, _ := New(sc)
	m := mustMap(t, sim2, wmap.Europe, sc.End)
	seen := make(map[string]bool)
	for _, n := range m.Nodes {
		if seen[n.Name] {
			t.Fatalf("duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
}

func TestScenarioExternalBudget(t *testing.T) {
	sc := DefaultScenario()
	msc, ok := sc.MapScenario(wmap.Europe)
	if !ok {
		t.Fatal("europe missing")
	}
	var ext int
	for _, ev := range msc.Events {
		switch ev.Kind {
		case AddExternalLinks:
			ext += ev.Count
		case AddInactiveParallel:
			ext++
		}
	}
	if msc.ExternalLinks+ext != 265 {
		t.Errorf("external budget: %d + %d = %d, want 265", msc.ExternalLinks, ext, msc.ExternalLinks+ext)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{AddRouters, RemoveRouters, RestoreRouters, AddInternalLinks,
		AddExternalLinks, AddInactiveParallel, ActivateLinks}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate String for kind %d: %q", int(k), s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestScalewayLikeScenario(t *testing.T) {
	sc := ScalewayLikeScenario()
	sim, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MapAt(wmap.Europe, sc.End)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r, i, e := len(m.Routers()), len(m.InternalLinks()), len(m.ExternalLinks())
	// The comparison provider must be markedly smaller than OVH Europe
	// (113/744/265) while staying a real backbone.
	if r < 15 || r > 40 {
		t.Errorf("routers = %d", r)
	}
	if i < 100 || i > 200 {
		t.Errorf("internal = %d", i)
	}
	if e < 30 || e > 60 {
		t.Errorf("external = %d", e)
	}
	// Hotter links than OVH: mean load at a fixed instant noticeably higher.
	var hot stats.PercentHist
	for _, l := range m.Links {
		hot.Add(int(l.LoadAB))
		hot.Add(int(l.LoadBA))
	}
	mean, _ := hot.Mean()
	if mean < 20 {
		t.Errorf("scaleway-like mean load = %.1f, expected hotter than OVH's ~20", mean)
	}
}

func TestEventErrorPaths(t *testing.T) {
	sc := DefaultScenario()
	msc, _ := sc.MapScenario(wmap.Europe)
	msc.Events = []Event{{Time: sc.Start.Add(time.Hour), Kind: ActivateLinks, Peering: "NOPE-IX"}}
	sc.Maps = []MapScenario{msc}
	sc.Upgrade = UpgradeStudy{}
	if _, err := New(sc); err == nil {
		t.Error("event targeting an unscripted peering should be rejected at construction")
	}
}

func TestBorrowTooMany(t *testing.T) {
	sc := DefaultScenario()
	for i := range sc.Maps {
		if sc.Maps[i].ID == wmap.World {
			sc.Maps[i].Borrow = map[wmap.MapID]int{wmap.AsiaPacific: 10_000}
		}
	}
	if _, err := New(sc); err == nil {
		t.Error("borrowing more routers than available should fail")
	}
}

func TestCircularBorrow(t *testing.T) {
	sc := DefaultScenario()
	for i := range sc.Maps {
		switch sc.Maps[i].ID {
		case wmap.Europe:
			sc.Maps[i].Borrow = map[wmap.MapID]int{wmap.World: 1}
		}
	}
	if _, err := New(sc); err == nil {
		t.Error("circular borrow should fail")
	}
}

func TestValidateDefaultScenarios(t *testing.T) {
	for _, sc := range []Scenario{DefaultScenario(), ScalewayLikeScenario()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in scenario invalid: %v", err)
		}
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	mutate := func(f func(*Scenario)) Scenario {
		sc := DefaultScenario()
		f(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"inverted range", mutate(func(s *Scenario) { s.End = s.Start.AddDate(0, 0, -1) })},
		{"zero step", mutate(func(s *Scenario) { s.Step = 0 })},
		{"no maps", mutate(func(s *Scenario) { s.Maps = nil; s.Upgrade = UpgradeStudy{} })},
		{"duplicate map", mutate(func(s *Scenario) { s.Maps = append(s.Maps, s.Maps[0]) })},
		{"self borrow", mutate(func(s *Scenario) { s.Maps[0].Borrow = map[wmap.MapID]int{s.Maps[0].ID: 1} })},
		{"unknown borrow", mutate(func(s *Scenario) { s.Maps[0].Borrow = map[wmap.MapID]int{"mars": 1} })},
		{"negative sizing", mutate(func(s *Scenario) { s.Maps[0].InternalLinks = -1 })},
		{"edge fraction", mutate(func(s *Scenario) { s.Maps[0].EdgeFraction = 1.5 })},
		{"event before start", mutate(func(s *Scenario) {
			s.Maps[0].Events = append(s.Maps[0].Events, Event{Time: s.Start.AddDate(0, 0, -1), Kind: AddInternalLinks, Count: 1})
		})},
		{"zero-count event", mutate(func(s *Scenario) {
			s.Maps[0].Events = append(s.Maps[0].Events, Event{Time: s.Start.AddDate(0, 1, 0), Kind: AddRouters})
		})},
		{"unscripted peering event", mutate(func(s *Scenario) {
			s.Maps[0].Events = append(s.Maps[0].Events, Event{Time: s.Start.AddDate(0, 1, 0), Kind: ActivateLinks, Peering: "GHOST-IX"})
		})},
		{"upgrade order", mutate(func(s *Scenario) { s.Upgrade.Activated = s.Upgrade.Added.AddDate(0, 0, -1) })},
		{"upgrade capacity", mutate(func(s *Scenario) { s.Upgrade.GbpsAfter = s.Upgrade.GbpsBefore })},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken scenario", c.name)
		}
	}
}

// Regression: a backward jump on a map with borrowed routers must rebuild
// with the SAME borrowed names; re-resolving would advance the source's
// lending cursor and change the World map's identity mid-run.
func TestBackwardJumpKeepsBorrowedRouters(t *testing.T) {
	simA, sc := mustSim(t)
	late := sc.Start.AddDate(0, 18, 0).Add(10 * time.Hour)
	early := sc.Start.Add(10 * time.Hour)
	mustMap(t, simA, wmap.World, late)
	back := mustMap(t, simA, wmap.World, early)

	simB, _ := mustSim(t)
	fresh := mustMap(t, simB, wmap.World, early)
	if len(back.Nodes) != len(fresh.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(back.Nodes), len(fresh.Nodes))
	}
	for i := range back.Nodes {
		if back.Nodes[i] != fresh.Nodes[i] {
			t.Fatalf("node %d differs after backward jump: %+v vs %+v", i, back.Nodes[i], fresh.Nodes[i])
		}
	}
	for i := range back.Links {
		if back.Links[i] != fresh.Links[i] {
			t.Fatalf("link %d differs after backward jump: %+v vs %+v", i, back.Links[i], fresh.Links[i])
		}
	}
}
