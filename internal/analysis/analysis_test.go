package analysis

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/stats"
	"ovhweather/internal/status"
	"ovhweather/internal/wmap"
)

// simStream samples the default scenario for one map between two times.
func simStream(t *testing.T, id wmap.MapID, from, to time.Time, step time.Duration) Stream {
	t.Helper()
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	return func(yield func(*wmap.Map) error) error {
		for at := from; !at.After(to); at = at.Add(step) {
			m, err := sim.MapAt(id, at)
			if err != nil {
				return err
			}
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestInfrastructureSeries(t *testing.T) {
	sc := netsim.DefaultScenario()
	src := simStream(t, wmap.Europe, sc.Start, sc.End, 7*24*time.Hour)
	infra, err := Infrastructure(src)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := infra.Routers.First()
	last, _ := infra.Routers.Last()
	if first.V != 111 || last.V != 113 {
		t.Errorf("router series %v -> %v, want 111 -> 113", first.V, last.V)
	}
	lastInt, _ := infra.Internal.Last()
	if lastInt.V != 744 {
		t.Errorf("internal end = %v, want 744", lastInt.V)
	}
	lastExt, _ := infra.External.Last()
	if lastExt.V != 265 {
		t.Errorf("external end = %v, want 265", lastExt.V)
	}

	events := infra.RouterEvents(3)
	if len(events) < 4 {
		t.Errorf("router events = %+v, want the add/remove/dip/restore sequence", events)
	}
	var sawBigStep bool
	for _, e := range infra.InternalSteps(30) {
		if e.Delta >= 30 {
			sawBigStep = true
		}
	}
	if !sawBigStep {
		t.Error("missing the November 2021 internal step")
	}
}

func TestDegreeCCDF(t *testing.T) {
	sc := netsim.DefaultScenario()
	var last *wmap.Map
	src := simStream(t, wmap.Europe, sc.End, sc.End, time.Hour)
	if err := src(func(m *wmap.Map) error { last = m; return nil }); err != nil {
		t.Fatal(err)
	}
	v, err := DegreeCCDF(last)
	if err != nil {
		t.Fatal(err)
	}
	if v.Routers != 113 {
		t.Errorf("routers = %d", v.Routers)
	}
	if v.FracDegree1 <= 0.20 || v.FracOver20 <= 0.20 {
		t.Errorf("degree fractions = %.2f / %.2f, want both > 0.20", v.FracDegree1, v.FracOver20)
	}
	// CCDF is non-increasing.
	for i := 1; i < len(v.CCDF); i++ {
		if v.CCDF[i].Fraction > v.CCDF[i-1].Fraction {
			t.Fatal("CCDF increases")
		}
	}
	if _, err := DegreeCCDF(&wmap.Map{}); err == nil {
		t.Error("empty map should error")
	}
}

func TestTable1(t *testing.T) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	maps, err := sim.SnapshotAt(netsim.DefaultScenario().End)
	if err != nil {
		t.Fatal(err)
	}
	rows, total := Table1(maps)
	if len(rows) != 4 || total.Routers != 181 || total.External != 518 {
		t.Errorf("rows=%d total=%+v", len(rows), total)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows, total); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Europe", "113", "744", "265", "Total", "181", "518"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestHourlyLoads(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Start.AddDate(0, 6, 0)
	src := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 2), time.Hour)
	v, err := HourlyLoads(src)
	if err != nil {
		t.Fatal(err)
	}
	trough, peak := v.TroughHour(), v.PeakHour()
	if trough < 1 || trough > 5 {
		t.Errorf("trough hour = %d, want night (paper: 2-4 a.m.)", trough)
	}
	if peak < 18 || peak > 22 {
		t.Errorf("peak hour = %d, want evening (paper: 7-9 p.m.)", peak)
	}
	// Variance grows with load: the p75-p25 spread at the peak exceeds the
	// trough's.
	spreadPeak := v.Hours[peak].P75 - v.Hours[peak].P25
	spreadTrough := v.Hours[trough].P75 - v.Hours[trough].P25
	if spreadPeak <= spreadTrough {
		t.Errorf("spread peak %.1f <= trough %.1f; paper reports variance rising with load", spreadPeak, spreadTrough)
	}
	var buf bytes.Buffer
	WriteHourlyLoads(&buf, v)
	if !strings.Contains(buf.String(), "peak hour") {
		t.Error("report missing peak hour")
	}
}

func TestLoadCDFShape(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Start.AddDate(0, 9, 0)
	src := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 3), 3*time.Hour)
	v, err := LoadCDF(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.P75All >= 33 {
		t.Errorf("p75 = %.1f, want < 33", v.P75All)
	}
	if v.FracOver60 > 0.03 {
		t.Errorf("frac > 60 = %.3f", v.FracOver60)
	}
	if v.MeanExternal >= v.MeanInternal {
		t.Errorf("external mean %.1f >= internal %.1f", v.MeanExternal, v.MeanInternal)
	}
	var buf bytes.Buffer
	WriteLoadCDF(&buf, v)
	if !strings.Contains(buf.String(), "p75") {
		t.Error("report missing p75")
	}
}

func TestImbalanceCDFShape(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Start.AddDate(0, 3, 0)
	src := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 1), 6*time.Hour)
	v, err := ImbalanceCDF(src, wmap.PaperImbalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v.IntSets == 0 || v.ExtSets == 0 {
		t.Fatalf("no sets: %+v", v)
	}
	if v.IntWithin1 <= 0.60 {
		t.Errorf("internal within 1%% = %.2f, want > 0.60", v.IntWithin1)
	}
	if v.ExtWithin2 <= 0.90 {
		t.Errorf("external within 2%% = %.2f, want > 0.90", v.ExtWithin2)
	}
	if v.MeanParallelism <= 1 {
		t.Errorf("mean parallelism = %.2f", v.MeanParallelism)
	}
	var buf bytes.Buffer
	WriteImbalance(&buf, v)
	if !strings.Contains(buf.String(), "imbalance") {
		t.Error("report missing imbalance")
	}
}

func TestUpgradeStudyDetectsABC(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Upgrade.Added.AddDate(0, 0, -10)
	to := sc.Upgrade.Activated.AddDate(0, 0, 10)
	src := simStream(t, wmap.Europe, from, to, 6*time.Hour)

	db := peeringdb.New()
	db.Announce(peeringdb.Record{Peering: sc.Upgrade.Peering, Network: "OVH", Gbps: sc.Upgrade.GbpsBefore, Updated: sc.Start})
	db.Announce(peeringdb.Record{Peering: sc.Upgrade.Peering, Network: "OVH", Gbps: sc.Upgrade.GbpsAfter, Updated: sc.Upgrade.DBUpdated, Comment: "new 100G"})

	v, err := UpgradeStudy(src, sc.Upgrade.Peering, db)
	if err != nil {
		t.Fatal(err)
	}
	if v.Added.IsZero() {
		t.Fatal("arrow A not detected")
	}
	if dayDiff(v.Added, sc.Upgrade.Added) > 1 {
		t.Errorf("A detected at %s, scenario %s", v.Added, sc.Upgrade.Added)
	}
	if v.Activated.IsZero() {
		t.Fatal("arrow C not detected")
	}
	if dayDiff(v.Activated, sc.Upgrade.Activated) > 1 {
		t.Errorf("C detected at %s, scenario %s", v.Activated, sc.Upgrade.Activated)
	}
	if v.DBUpdate == nil {
		t.Fatal("arrow B not found in database")
	}
	if v.DBUpdate.GbpsBefore != 400 || v.DBUpdate.GbpsAfter != 500 {
		t.Errorf("B = %+v", v.DBUpdate)
	}
	if !v.CapacityOK {
		t.Errorf("capacity cross-check failed: drop %.2f vs announced %.2f", v.DropRatio(), v.AnnouncedRatio())
	}
	if len(v.Series) != 5 {
		t.Errorf("series = %d, want 5 parallel links", len(v.Series))
	}
	var buf bytes.Buffer
	WriteUpgrade(&buf, v)
	for _, want := range []string{"A: link added", "B: PeeringDB update", "C: link activated"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestUpgradeStudyNoPeering(t *testing.T) {
	src := SliceStream(nil)
	if _, err := UpgradeStudy(src, "NOPE-IX", nil); err == nil {
		t.Error("missing peering should error")
	}
}

func dayDiff(a, b time.Time) int {
	d := a.Sub(b)
	if d < 0 {
		d = -d
	}
	return int(d.Hours() / 24)
}

func TestSliceStream(t *testing.T) {
	maps := []*wmap.Map{{ID: wmap.Europe}, {ID: wmap.World}}
	var seen int
	err := SliceStream(maps)(func(m *wmap.Map) error {
		seen++
		return nil
	})
	if err != nil || seen != 2 {
		t.Errorf("seen = %d, err = %v", seen, err)
	}
}

func TestSampleDist(t *testing.T) {
	var in []stats.DistPoint
	for i := 0; i < 100; i++ {
		in = append(in, stats.DistPoint{Value: float64(i), Fraction: float64(i) / 99})
	}
	out := sampleDist(in, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != in[0] || out[9] != in[99] {
		t.Error("sampleDist must keep endpoints")
	}
	if got := sampleDist(in[:5], 10); len(got) != 5 {
		t.Errorf("short input should pass through, got %d", len(got))
	}
}

func TestCorrelateMaintenance(t *testing.T) {
	sc := netsim.DefaultScenario()
	src := simStream(t, wmap.Europe, sc.Start, sc.End, 7*24*time.Hour)
	infra, err := Infrastructure(src)
	if err != nil {
		t.Fatal(err)
	}
	feed := status.FromScenario(sc)
	corr := CorrelateMaintenance(infra, feed, 3, 8*24*time.Hour)
	if len(corr.Matches) < 4 {
		t.Fatalf("matches = %d", len(corr.Matches))
	}
	if corr.Unexplained != 0 {
		var buf bytes.Buffer
		WriteMaintenance(&buf, corr)
		t.Errorf("all scripted router changes should be explained by the feed:\n%s", buf.String())
	}
	var buf bytes.Buffer
	WriteMaintenance(&buf, corr)
	if !strings.Contains(buf.String(), "explained") {
		t.Error("report missing summary")
	}
}

func TestCorrelateMaintenanceUnexplained(t *testing.T) {
	sc := netsim.DefaultScenario()
	src := simStream(t, wmap.Europe, sc.Start, sc.End, 7*24*time.Hour)
	infra, err := Infrastructure(src)
	if err != nil {
		t.Fatal(err)
	}
	empty := status.NewFeed()
	corr := CorrelateMaintenance(infra, empty, 3, time.Hour)
	if corr.Explained != 0 || corr.Unexplained == 0 {
		t.Errorf("empty feed should explain nothing: %+v", corr)
	}
}

func TestSiteOf(t *testing.T) {
	cases := map[string]string{
		"fra-fr5-pb6-nc5": "fra",
		"rbx-g1":          "rbx",
		"standalone":      "standalone",
	}
	for in, want := range cases {
		if got := SiteOf(in); got != want {
			t.Errorf("SiteOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSiteGrowthStudy(t *testing.T) {
	first := &wmap.Map{
		ID: wmap.Europe,
		Nodes: []wmap.Node{
			{Name: "fra-r1", Kind: wmap.Router},
			{Name: "rbx-r1", Kind: wmap.Router},
		},
		Links: []wmap.Link{{A: "fra-r1", B: "rbx-r1", LoadAB: 1, LoadBA: 1}},
	}
	last := first.Clone()
	last.Nodes = append(last.Nodes, wmap.Node{Name: "fra-r2", Kind: wmap.Router})
	last.Links = append(last.Links, wmap.Link{A: "fra-r2", B: "rbx-r1", LoadAB: 1, LoadBA: 1})

	v, err := SiteGrowthStudy(SliceStream([]*wmap.Map{first, last}))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Ranked) != 2 {
		t.Fatalf("ranked = %+v", v.Ranked)
	}
	top := v.Ranked[0]
	if top.Site != "fra" || top.RouterDelta != 1 || top.RoutersBefore != 1 || top.RoutersAfter != 2 {
		t.Errorf("top = %+v", top)
	}
	// rbx gained a link endpoint but no router.
	if v.Ranked[1].Site != "rbx" || v.Ranked[1].RouterDelta != 0 || v.Ranked[1].LinkDelta != 1 {
		t.Errorf("rbx = %+v", v.Ranked[1])
	}
	var buf bytes.Buffer
	WriteSiteGrowth(&buf, v, 5)
	if !strings.Contains(buf.String(), "fra") {
		t.Error("report missing site")
	}
	if _, err := SiteGrowthStudy(SliceStream(nil)); err == nil {
		t.Error("empty stream should error")
	}
}

func TestSiteGrowthOnScenario(t *testing.T) {
	sc := netsim.DefaultScenario()
	src := simStream(t, wmap.Europe, sc.Start, sc.End, 60*24*time.Hour)
	v, err := SiteGrowthStudy(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Ranked) < 10 {
		t.Errorf("sites = %d, expected many Europe sites", len(v.Ranked))
	}
	var grew int
	for _, g := range v.Ranked {
		if g.RouterDelta > 0 || g.LinkDelta > 0 {
			grew++
		}
	}
	if grew == 0 {
		t.Error("no growing site over two years of expansion")
	}
}

func TestCongestionStudy(t *testing.T) {
	hot := &wmap.Map{
		ID: wmap.Europe,
		Nodes: []wmap.Node{
			{Name: "a-r1", Kind: wmap.Router},
			{Name: "b-r1", Kind: wmap.Router},
		},
		Links: []wmap.Link{
			{A: "a-r1", B: "b-r1", LabelA: "#1", LabelB: "#1", LoadAB: 80, LoadBA: 10},
			{A: "a-r1", B: "b-r1", LabelA: "#2", LabelB: "#2", LoadAB: 20, LoadBA: 10},
		},
	}
	cool := hot.Clone()
	cool.Links[0].LoadAB = 30

	v, err := CongestionStudy(SliceStream([]*wmap.Map{hot, hot, hot, cool}), DefaultCongestionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshots != 4 || v.Observations != 16 {
		t.Fatalf("view = %+v", v)
	}
	if v.HotReadings != 3 {
		t.Errorf("hot readings = %d, want 3", v.HotReadings)
	}
	if len(v.Persistent) != 1 {
		t.Fatalf("persistent = %+v", v.Persistent)
	}
	p := v.Persistent[0]
	if p.From != "a-r1" || p.To != "b-r1" || p.Ordinal != 0 || p.HotShare != 0.75 || p.PeakLoad != 80 {
		t.Errorf("persistent link = %+v", p)
	}
	var buf bytes.Buffer
	WriteCongestion(&buf, v)
	if !strings.Contains(buf.String(), "persistently congested") {
		t.Error("report missing headline")
	}
	if _, err := CongestionStudy(SliceStream(nil), DefaultCongestionOptions()); err == nil {
		t.Error("empty stream should error")
	}
}

func TestCongestionOnScenarioIsOccasional(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Start.AddDate(0, 4, 0)
	src := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 2), 4*time.Hour)
	v, err := CongestionStudy(src, DefaultCongestionOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The paper: congestion "happens occasionally" — a thin tail, not a
	// network-wide condition.
	if v.HotFraction > 0.05 {
		t.Errorf("hot fraction = %.3f, want occasional", v.HotFraction)
	}
	if got := float64(len(v.Persistent)); got > 40 {
		t.Errorf("persistent links = %v, want a small hot set", got)
	}
}

func TestWeeklyLoads(t *testing.T) {
	sc := netsim.DefaultScenario()
	from := sc.Start.AddDate(0, 5, 0)
	src := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 14), 6*time.Hour)
	v, err := WeeklyLoads(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceWeeklyLoads(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, v) {
		t.Errorf("weekly view diverges from the reference:\nreference %+v\ngot       %+v", want, v)
	}
	if v.WeekendMean >= v.WeekdayMean {
		t.Errorf("weekend mean %.1f >= weekday mean %.1f; backbone traffic should dip on weekends",
			v.WeekendMean, v.WeekdayMean)
	}
	for d := 0; d < 7; d++ {
		if v.Samples[d] == 0 {
			t.Errorf("day %d has no samples over two weeks", d)
		}
	}
	var buf bytes.Buffer
	WriteWeekly(&buf, v)
	if !strings.Contains(buf.String(), "Weekly pattern") {
		t.Error("report missing headline")
	}
	if _, err := WeeklyLoads(SliceStream(nil)); err == nil {
		t.Error("empty stream should error")
	}
}

func TestChurnStudy(t *testing.T) {
	// A window containing the October 2020 decommission: four named routers
	// must show up as removed.
	from := time.Date(2020, time.September, 28, 12, 0, 0, 0, time.UTC)
	to := time.Date(2020, time.October, 6, 12, 0, 0, 0, time.UTC)
	src := simStream(t, wmap.Europe, from, to, 24*time.Hour)
	v, err := ChurnStudy(src)
	if err != nil {
		t.Fatal(err)
	}
	// The window holds the October 2 decommission and the October 3 monthly
	// peering addition; the decommission event must name 4 routers.
	var decom *ChurnEvent
	for i := range v.Events {
		if len(v.Events[i].Diff.NodesRemoved) > 0 {
			decom = &v.Events[i]
		}
	}
	if decom == nil {
		t.Fatalf("no removal event found in %+v", v.Events)
	}
	if len(decom.Diff.NodesRemoved) != 4 {
		t.Errorf("removed = %+v, want the 4 decommissioned routers", decom.Diff.NodesRemoved)
	}
	for _, n := range decom.Diff.NodesRemoved {
		if n.Kind != wmap.Router {
			t.Errorf("removed node %s is a %s", n.Name, n.Kind)
		}
	}
	var buf bytes.Buffer
	WriteChurn(&buf, v)
	if !strings.Contains(buf.String(), "change point") {
		t.Error("report missing headline")
	}
	if _, err := ChurnStudy(SliceStream(nil)); err == nil {
		t.Error("empty stream should error")
	}
}

// TestChurnStudyMatchesCompare feeds ChurnStudy hourly Europe snapshots
// across the October 2020 decommission through one reused map, as
// Cursor.MapView does, and requires exactly the Diffs, LoadChanges
// included, that wmap.Compare gives on every pair of owned consecutive
// snapshots.
func TestChurnStudyMatchesCompare(t *testing.T) {
	var owned []*wmap.Map
	from := time.Date(2020, time.October, 1, 12, 0, 0, 0, time.UTC)
	if err := simStream(t, wmap.Europe, from, from.Add(47*time.Hour), time.Hour)(func(m *wmap.Map) error {
		owned = append(owned, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []ChurnEvent
	for i := 1; i < len(owned); i++ {
		if d := wmap.Compare(owned[i-1], owned[i]); !d.Empty() {
			want = append(want, ChurnEvent{From: owned[i-1].Time, To: owned[i].Time, Diff: d})
		}
	}
	if len(want) != 2 || want[0].Diff.LoadChanges == 0 {
		t.Fatalf("window holds %d changes (load changes %+v); want the decommission and the peering links", len(want), want)
	}
	view := &wmap.Map{}
	got, err := ChurnStudy(func(yield func(*wmap.Map) error) error {
		for _, m := range owned {
			view.ID, view.Time = m.ID, m.Time
			view.Nodes = append(view.Nodes[:0], m.Nodes...)
			view.Links = append(view.Links[:0], m.Links...)
			if err := yield(view); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Errorf("ChurnStudy over a reused map:\n got %+v\nwant %+v", got.Events, want)
	}
}

func TestPathStabilityStudy(t *testing.T) {
	// A stable window, then the October 2020 decommission: any reroute in
	// the change interval must be flagged as topology-correlated.
	from := time.Date(2020, time.September, 25, 12, 0, 0, 0, time.UTC)
	to := time.Date(2020, time.October, 8, 12, 0, 0, 0, time.UTC)
	src := simStream(t, wmap.Europe, from, to, 24*time.Hour)

	// Pick two stable core routers from the first snapshot.
	var first *wmap.Map
	if err := simStream(t, wmap.Europe, from, from, time.Hour)(func(m *wmap.Map) error {
		first = m
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var routers []string
	for _, n := range first.Routers() {
		routers = append(routers, n.Name)
	}
	pairs := [][2]string{
		{routers[0], routers[len(routers)/2]},
		{routers[1], routers[len(routers)-1]},
		{routers[2], routers[len(routers)/3]},
	}
	v, err := PathStabilityStudy(src, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshots != 14 {
		t.Errorf("snapshots = %d", v.Snapshots)
	}
	if v.Traces == 0 {
		t.Fatal("no traces")
	}
	for _, c := range v.Changes {
		if !c.TopoChange {
			// Paths only change when topology does on a deterministic
			// shortest-path trace. Note: the monthly external event does
			// not affect internal routing but IS a topology change, so the
			// converse does not hold.
			t.Errorf("reroute without topology change: %+v", c)
		}
	}
	var buf bytes.Buffer
	WritePathStability(&buf, v)
	if !strings.Contains(buf.String(), "Path stability") {
		t.Error("report missing headline")
	}
	if _, err := PathStabilityStudy(src, nil); err == nil {
		t.Error("no pairs should error")
	}
}
