// Benchmarks regenerating every table and figure of the paper, plus
// throughput benchmarks for the two core algorithms and ablations of the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Shape fidelity (who wins, approximate factors, crossovers) is asserted by
// the unit and integration tests; the benchmarks here measure the cost of
// producing each result and print the headline numbers once per run.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/render"
	"ovhweather/internal/status"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// fixture holds expensive shared state built once per benchmark binary run.
type fixture struct {
	sc        netsim.Scenario
	endMaps   []*wmap.Map // all four maps at the scenario end
	europeSVG []byte      // rendered Europe snapshot at the end state
	europeRes *extract.ScanResult
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		fix.sc = netsim.DefaultScenario()
		sim, err := netsim.New(fix.sc)
		if err != nil {
			panic(err)
		}
		fix.endMaps, err = sim.SnapshotAt(fix.sc.End)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := render.Render(&buf, fix.endMaps[0], render.Options{}); err != nil {
			panic(err)
		}
		fix.europeSVG = buf.Bytes()
		fix.europeRes, err = extract.Scan(bytes.NewReader(fix.europeSVG), extract.ScanOptions{})
		if err != nil {
			panic(err)
		}
	})
	return &fix
}

// simStream yields Europe snapshots between from and to at the given step,
// each bench iteration replaying its own simulator.
func simStream(sc netsim.Scenario, from, to time.Time, step time.Duration) analysis.Stream {
	return func(yield func(*wmap.Map) error) error {
		sim, err := netsim.New(sc)
		if err != nil {
			return err
		}
		for at := from; !at.After(to); at = at.Add(step) {
			m, err := sim.MapAt(wmap.Europe, at)
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

// BenchmarkTable1MapSummary regenerates Table 1: the per-map router and
// link counts with the router-dedup total on the final observation day.
func BenchmarkTable1MapSummary(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var total analysis.Table1Row
	for i := 0; i < b.N; i++ {
		_, total = analysis.Table1(f.endMaps)
	}
	b.ReportMetric(float64(total.Routers), "routers")
}

// BenchmarkTable2DatasetSummary regenerates Table 2 over a small on-disk
// dataset: index walk, file counting and size accounting.
func BenchmarkTable2DatasetSummary(b *testing.B) {
	f := getFixture(b)
	store, err := dataset.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at := f.sc.Start.Add(time.Duration(i) * 5 * time.Minute)
		if err := store.WriteSnapshot(wmap.Europe, at, dataset.ExtSVG, f.europeSVG); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Summarize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Timeframes computes the collection segments of Figure 2 from
// a two-year timestamp list with gaps.
func BenchmarkFig2Timeframes(b *testing.B) {
	f := getFixture(b)
	plan := defaultPlanTimes(f.sc, wmap.Europe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov := dataset.CoverageOfTimes(wmap.Europe, plan)
		if cov.Count == 0 {
			b.Fatal("no coverage")
		}
	}
}

// BenchmarkFig3GapDistribution computes the inter-snapshot interval
// distribution of Figure 3 over the same two-year list.
func BenchmarkFig3GapDistribution(b *testing.B) {
	f := getFixture(b)
	plan := defaultPlanTimes(f.sc, wmap.Europe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := dataset.IntervalsOfTimes(wmap.Europe, plan)
		if dist.Intervals == 0 {
			b.Fatal("no intervals")
		}
	}
}

// defaultPlanTimes simulates a two-year 5-minute collection with the
// paper's outage plan applied, returning the collected timestamps.
func defaultPlanTimes(sc netsim.Scenario, id wmap.MapID) []time.Time {
	// Computing the full 220k-step schedule once per call keeps the
	// benchmark focused on the analysis, not the plan evaluation.
	planOnce.Do(func() {
		plan := defaultPlan()
		for t := sc.Start; !t.After(sc.End); t = t.Add(5 * time.Minute) {
			if plan.ShouldCollect(id, t) {
				planTimes = append(planTimes, t)
			}
		}
	})
	return planTimes
}

var (
	planOnce  sync.Once
	planTimes []time.Time
)

// BenchmarkFig4aRouterEvolution regenerates the Figure 4a router-count
// series (weekly sampling over the full range) and its change events.
func BenchmarkFig4aRouterEvolution(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infra, err := analysis.Infrastructure(simStream(f.sc, f.sc.Start, f.sc.End, 7*24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if got := len(infra.RouterEvents(3)); got < 4 {
			b.Fatalf("router events = %d", got)
		}
	}
}

// BenchmarkFig4bLinkEvolution regenerates the Figure 4b link series.
func BenchmarkFig4bLinkEvolution(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infra, err := analysis.Infrastructure(simStream(f.sc, f.sc.Start, f.sc.End, 7*24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		last, _ := infra.Internal.Last()
		if last.V != 744 {
			b.Fatalf("internal end = %v", last.V)
		}
	}
}

// BenchmarkFig4cDegreeCCDF regenerates the Figure 4c degree CCDF.
func BenchmarkFig4cDegreeCCDF(b *testing.B) {
	f := getFixture(b)
	m := f.endMaps[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.DegreeCCDF(m)
		if err != nil {
			b.Fatal(err)
		}
		if v.FracDegree1 <= 0.2 || v.FracOver20 <= 0.2 {
			b.Fatalf("degree shape off: %+v", v)
		}
	}
}

// BenchmarkFig5aHourlyLoads regenerates the Figure 5a hour-of-day load
// summary over two days of hourly Europe snapshots.
func BenchmarkFig5aHourlyLoads(b *testing.B) {
	f := getFixture(b)
	from := f.sc.Start.AddDate(0, 6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.HourlyLoads(simStream(f.sc, from, from.AddDate(0, 0, 2), time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if p := v.PeakHour(); p < 18 || p > 22 {
			b.Fatalf("peak hour %d", p)
		}
	}
}

// BenchmarkFig5bLoadCDF regenerates the Figure 5b load distribution.
func BenchmarkFig5bLoadCDF(b *testing.B) {
	f := getFixture(b)
	from := f.sc.Start.AddDate(0, 9, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.LoadCDF(simStream(f.sc, from, from.AddDate(0, 0, 2), 3*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if v.P75All >= 33 {
			b.Fatalf("p75 = %v", v.P75All)
		}
	}
}

// BenchmarkFig5cImbalanceCDF regenerates the Figure 5c imbalance CDFs with
// the paper's filters.
func BenchmarkFig5cImbalanceCDF(b *testing.B) {
	f := getFixture(b)
	from := f.sc.Start.AddDate(0, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.ImbalanceCDF(simStream(f.sc, from, from.AddDate(0, 0, 1), 6*time.Hour), wmap.PaperImbalanceOptions())
		if err != nil {
			b.Fatal(err)
		}
		if v.IntWithin1 <= 0.6 {
			b.Fatalf("imbalance shape off: %+v", v)
		}
	}
}

// BenchmarkFig6UpgradeStudy regenerates the Figure 6 case study including
// the PeeringDB cross-check.
func BenchmarkFig6UpgradeStudy(b *testing.B) {
	f := getFixture(b)
	db := peeringdb.New()
	db.Announce(peeringdb.Record{Peering: f.sc.Upgrade.Peering, Network: "OVH", Gbps: f.sc.Upgrade.GbpsBefore, Updated: f.sc.Start})
	db.Announce(peeringdb.Record{Peering: f.sc.Upgrade.Peering, Network: "OVH", Gbps: f.sc.Upgrade.GbpsAfter, Updated: f.sc.Upgrade.DBUpdated})
	from := f.sc.Upgrade.Added.AddDate(0, 0, -10)
	to := f.sc.Upgrade.Activated.AddDate(0, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.UpgradeStudy(simStream(f.sc, from, to, 6*time.Hour), f.sc.Upgrade.Peering, db)
		if err != nil {
			b.Fatal(err)
		}
		if v.DBUpdate == nil || !v.CapacityOK {
			b.Fatalf("upgrade study incomplete: %+v", v)
		}
	}
}

// BenchmarkAlgorithm1Scan measures the SVG parsing throughput of Algorithm
// 1 on a full Europe-scale document: the cold scan, into a fresh
// ScanResult, which lexes the whole document and stores its template.
func BenchmarkAlgorithm1Scan(b *testing.B) {
	f := getFixture(b)
	b.SetBytes(int64(len(f.europeSVG)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res extract.ScanResult
		if err := extract.ScanBytesInto(&res, f.europeSVG, extract.ScanOptions{}); err != nil {
			b.Fatal(err)
		}
		if len(res.Links) != len(f.endMaps[0].Links) {
			b.Fatalf("links = %d", len(res.Links))
		}
	}
}

// BenchmarkAlgorithm1ScanSteady measures Algorithm 1 at the polling
// cadence: two consecutive Europe snapshots, which differ only in loads
// and arrow colours, alternate through one ScanResult, so every scan after
// the first two is filled from a stored template.
func BenchmarkAlgorithm1ScanSteady(b *testing.B) {
	f := getFixture(b)
	sim, err := netsim.New(f.sc)
	if err != nil {
		b.Fatal(err)
	}
	var maps [2]*wmap.Map
	var docs [2][]byte
	for k := range docs {
		ms, err := sim.SnapshotAt(f.sc.End.Add(time.Duration(k-1) * 5 * time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := render.Render(&buf, ms[0], render.Options{}); err != nil {
			b.Fatal(err)
		}
		maps[k], docs[k] = ms[0], buf.Bytes()
	}
	if bytes.Equal(docs[0], docs[1]) {
		b.Fatal("consecutive snapshots render identically")
	}
	var res extract.ScanResult
	for round := 0; round < 2; round++ {
		for k, doc := range docs {
			if err := extract.ScanBytesInto(&res, doc, extract.ScanOptions{}); err != nil {
				b.Fatal(err)
			}
			if len(res.Links) != len(maps[k].Links) {
				b.Fatalf("snapshot %d: links = %d, want %d", k, len(res.Links), len(maps[k].Links))
			}
			// The renderer draws the links in map order.
			for i, l := range maps[k].Links {
				if got := res.Links[i].Loads; got != [2]wmap.Load{l.LoadAB, l.LoadBA} {
					b.Fatalf("snapshot %d link %d: loads = %v, want %v %v", k, i, got, l.LoadAB, l.LoadBA)
				}
			}
		}
	}
	b.SetBytes(int64(len(docs[0])+len(docs[1])) / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := extract.ScanBytesInto(&res, docs[i%2], extract.ScanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm2Attribute measures the geometric attribution
// throughput of Algorithm 2 on Europe-scale element lists. Before timing it
// checks the attribution against its reference, the map the document was
// rendered from: every node and every link, labels, ends and loads, in
// order.
func BenchmarkAlgorithm2Attribute(b *testing.B) {
	f := getFixture(b)
	m, err := extract.Attribute(f.europeRes, wmap.Europe, f.sc.End, extract.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	want := f.endMaps[0]
	if !slices.Equal(m.Nodes, want.Nodes) || !slices.Equal(m.Links, want.Links) {
		b.Fatalf("attribution differs from the rendered map: %d nodes, %d links, want %d, %d",
			len(m.Nodes), len(m.Links), len(want.Nodes), len(want.Links))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := extract.Attribute(f.europeRes, wmap.Europe, f.sc.End, extract.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Links) != len(want.Links) {
			b.Fatalf("links = %d", len(m.Links))
		}
	}
}

// BenchmarkEndToEndExtract measures the full pipeline: Algorithm 1 +
// Algorithm 2 + sanity checks on one Europe snapshot, the per-file cost of
// processing the 542,049-file dataset.
func BenchmarkEndToEndExtract(b *testing.B) {
	f := getFixture(b)
	b.SetBytes(int64(len(f.europeSVG)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.ExtractSVG(bytes.NewReader(f.europeSVG), wmap.Europe, f.sc.End, extract.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderEurope measures rendering a Europe snapshot with a warm
// scene cache — the generator's steady-state cost per snapshot.
func BenchmarkRenderEurope(b *testing.B) {
	f := getFixture(b)
	cache := render.NewSceneCache(render.Options{})
	if err := cache.WriteSVGCached(io.Discard, f.endMaps[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.WriteSVGCached(io.Discard, f.endMaps[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutEurope measures the cold layout cost (port assignment,
// label feasibility) amortized across topology changes.
func BenchmarkLayoutEurope(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.Layout(f.endMaps[0], render.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorStep measures advancing the simulator one five-minute
// step on the Europe map (the generator's inner loop).
func BenchmarkSimulatorStep(b *testing.B) {
	f := getFixture(b)
	sim, err := netsim.New(f.sc)
	if err != nil {
		b.Fatal(err)
	}
	at := f.sc.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(5 * time.Minute)
		if _, err := sim.MapAt(wmap.Europe, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationImbalanceFilters quantifies the effect of the paper's
// Figure 5c filters: dropping 0 % and 1 % loads and singleton sets versus
// keeping everything. The filtered variant must report fewer, cleaner sets.
func BenchmarkAblationImbalanceFilters(b *testing.B) {
	f := getFixture(b)
	m := f.endMaps[0]
	for _, cfg := range []struct {
		name string
		opt  wmap.ImbalanceOptions
	}{
		{"paper-filters", wmap.PaperImbalanceOptions()},
		{"no-filters", wmap.ImbalanceOptions{MinLinks: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var sets int
			for i := 0; i < b.N; i++ {
				sets = len(wmap.NewTopology(nil, m.Links).Imbalances(m.Links, cfg.opt))
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
}

// BenchmarkAblationStreamVsDOM compares the streaming SVG reader against
// materializing the element list first — the memory/throughput trade
// DESIGN.md calls out.
func BenchmarkAblationStreamVsDOM(b *testing.B) {
	f := getFixture(b)
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(f.europeSVG)))
		for i := 0; i < b.N; i++ {
			n := 0
			err := svg.Stream(bytes.NewReader(f.europeSVG), func(svg.Element) error {
				n++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dom", func(b *testing.B) {
		b.SetBytes(int64(len(f.europeSVG)))
		for i := 0; i < b.N; i++ {
			elems, err := svg.Parse(bytes.NewReader(f.europeSVG))
			if err != nil {
				b.Fatal(err)
			}
			if len(elems) == 0 {
				b.Fatal("no elements")
			}
		}
	})
}

// BenchmarkAblationLexerVsStd compares the zero-allocation fast lexer
// against the encoding/xml decoder on the same Europe document — the
// tentpole speedup, isolated from Algorithm 1. Both variants run over
// in-memory bytes so the delta is pure parsing cost.
func BenchmarkAblationLexerVsStd(b *testing.B) {
	f := getFixture(b)
	count := func(e svg.Element) error { return nil }
	b.Run("fast-lexer", func(b *testing.B) {
		b.SetBytes(int64(len(f.europeSVG)))
		for i := 0; i < b.N; i++ {
			if err := svg.StreamBytes(f.europeSVG, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.SetBytes(int64(len(f.europeSVG)))
		for i := 0; i < b.N; i++ {
			if err := svg.StreamStd(bytes.NewReader(f.europeSVG), count); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAttributionCache compares a cache hit (topology fingerprint
// match, loads spliced) against running Algorithm 2 — the steady-state
// saving on a timeline where consecutive snapshots share their topology.
func BenchmarkAttributionCache(b *testing.B) {
	f := getFixture(b)
	b.Run("hit", func(b *testing.B) {
		cache := extract.NewAttributionCache(extract.DefaultOptions())
		if _, err := cache.Attribute(f.europeRes, wmap.Europe, f.sc.End); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Attribute(f.europeRes, wmap.Europe, f.sc.End); err != nil {
				b.Fatal(err)
			}
		}
		if cache.Hits() != b.N {
			b.Fatalf("hits = %d, want %d", cache.Hits(), b.N)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := extract.Attribute(f.europeRes, wmap.Europe, f.sc.End, extract.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkYAMLEncodeDecode measures the processed-file codec on a Europe
// snapshot.
func BenchmarkYAMLEncodeDecode(b *testing.B) {
	f := getFixture(b)
	data, err := extract.MarshalYAML(f.endMaps[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := extract.MarshalYAML(f.endMaps[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := extract.UnmarshalYAML(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// defaultPlan returns the paper's collection plan.
func defaultPlan() collect.Plan { return collect.DefaultPlan() }

// BenchmarkExtensionSiteGrowth measures the per-site growth study (paper §5
// future work) over the full two-year range at monthly sampling.
func BenchmarkExtensionSiteGrowth(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.SiteGrowthStudy(simStream(f.sc, f.sc.Start, f.sc.End, 30*24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Ranked) == 0 {
			b.Fatal("no sites")
		}
	}
}

// BenchmarkExtensionCongestion measures the persistent-congestion detector
// over two days of Europe snapshots.
func BenchmarkExtensionCongestion(b *testing.B) {
	f := getFixture(b)
	from := f.sc.Start.AddDate(0, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := analysis.CongestionStudy(simStream(f.sc, from, from.AddDate(0, 0, 2), 4*time.Hour), analysis.DefaultCongestionOptions())
		if err != nil {
			b.Fatal(err)
		}
		if v.Observations == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkExtensionChurnDiff measures the snapshot diff on Europe-scale
// topologies.
func BenchmarkExtensionChurnDiff(b *testing.B) {
	f := getFixture(b)
	old := f.endMaps[0]
	next := old.Clone()
	next.Nodes = append(next.Nodes, wmap.Node{Name: "new-r1", Kind: wmap.Router})
	next.Links = append(next.Links, wmap.Link{A: "new-r1", B: old.Routers()[0].Name, LabelA: "#1", LabelB: "#1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := wmap.Compare(old, next)
		if len(d.NodesAdded) != 1 {
			b.Fatal("diff broken")
		}
	}
}

// removeYAMLs deletes every processed file so the next ProcessMap run
// starts from raw SVGs again.
func removeYAMLs(b *testing.B, root string) {
	b.Helper()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, "."+dataset.ExtYAML) {
			return os.Remove(path)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessMapParallel measures the SVG→YAML batch conversion at
// several worker-pool sizes over the same synthetic dataset — the headline
// number for the paper's 695k-snapshot processing run. workers=1 is the
// sequential baseline the parallel variants are compared against.
func BenchmarkProcessMapParallel(b *testing.B) {
	f := getFixture(b)
	const snapshots = 24
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			root := b.TempDir()
			store, err := dataset.Open(root)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < snapshots; i++ {
				at := f.sc.Start.Add(time.Duration(i) * 5 * time.Minute)
				if err := store.WriteSnapshot(wmap.Europe, at, dataset.ExtSVG, f.europeSVG); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(snapshots * len(f.europeSVG)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				removeYAMLs(b, root)
				b.StartTimer()
				rep, err := store.ProcessMapParallel(context.Background(), wmap.Europe, dataset.ProcessOptions{
					Workers: workers,
					Extract: extract.DefaultOptions(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Processed != snapshots || rep.Failed() != 0 {
					b.Fatalf("report = %+v", rep)
				}
			}
		})
	}
}

// BenchmarkWalkMapsParallel measures the chronological fold over processed
// snapshots at several decoding worker counts — the read side every figure
// regeneration pays, ordered delivery included.
func BenchmarkWalkMapsParallel(b *testing.B) {
	f := getFixture(b)
	const snapshots = 64
	store, err := dataset.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data, err := extract.MarshalYAML(f.endMaps[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < snapshots; i++ {
		at := f.sc.Start.Add(time.Duration(i) * 5 * time.Minute)
		if err := store.WriteSnapshot(wmap.Europe, at, dataset.ExtYAML, data); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(snapshots * len(data)))
			for i := 0; i < b.N; i++ {
				n := 0
				err := store.WalkMapsParallel(context.Background(), wmap.Europe, workers, func(m *wmap.Map) error {
					n++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != snapshots {
					b.Fatalf("walked %d", n)
				}
			}
		})
	}
}

// BenchmarkExtensionMaintenanceCorrelation measures the status-feed
// correlation of the Discussion-section augmentation.
func BenchmarkExtensionMaintenanceCorrelation(b *testing.B) {
	f := getFixture(b)
	infra, err := analysis.Infrastructure(simStream(f.sc, f.sc.Start, f.sc.End, 7*24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	feed := status.FromScenario(f.sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr := analysis.CorrelateMaintenance(infra, feed, 3, 8*24*time.Hour)
		if corr.Explained == 0 {
			b.Fatal("nothing explained")
		}
	}
}
