package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// TestPipelineEndToEnd drives the whole system the way the commands do:
// generate six hours of snapshots for all four maps (healthy plus one
// deliberately corrupted file), process them into YAML with the paper's
// error accounting, then run the analyses off the on-disk dataset and check
// they agree with the simulator ground truth.
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := render.NewSceneCache(render.Options{})

	// Generate: 6 hours at 5-minute steps, all maps.
	from := sc.Start.AddDate(0, 2, 0)
	steps := 0
	for at := from; at.Before(from.Add(6 * time.Hour)); at = at.Add(5 * time.Minute) {
		for _, id := range wmap.AllMaps() {
			m, err := sim.MapAt(id, at)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := cache.WriteSVGCached(&sb, m); err != nil {
				t.Fatal(err)
			}
			if err := store.WriteSnapshot(id, at, dataset.ExtSVG, []byte(sb.String())); err != nil {
				t.Fatal(err)
			}
		}
		steps++
	}
	// One corrupted Europe file, as wmgen -faults would produce.
	badAt := from.Add(6 * time.Hour)
	{
		m, err := sim.MapAt(wmap.Europe, badAt)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := cache.Scene(m)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := render.WriteFaultySVG(&sb, scn, m, render.FaultMalformedAttribute); err != nil {
			t.Fatal(err)
		}
		if err := store.WriteSnapshot(wmap.Europe, badAt, dataset.ExtSVG, []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}

	// Process: every map, with failure accounting. Alternate between the
	// sequential and the worker-pool entry points — their reports must be
	// interchangeable.
	for i, id := range wmap.AllMaps() {
		var rep dataset.ProcessReport
		var err error
		if i%2 == 0 {
			rep, err = store.ProcessMap(id, extract.DefaultOptions(), nil)
		} else {
			rep, err = store.ProcessMapParallel(context.Background(), id, dataset.ProcessOptions{
				Workers: 4,
				Extract: extract.DefaultOptions(),
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		wantFail := 0
		if id == wmap.Europe {
			wantFail = 1
		}
		if rep.Failed() != wantFail || rep.ScanFail != wantFail {
			t.Fatalf("%s: report = %+v, want %d scan failure(s)", id, rep, wantFail)
		}
		if rep.Processed != steps {
			t.Fatalf("%s: processed = %d, want %d", id, rep.Processed, steps)
		}
	}

	// Table 2 accounting matches what was written.
	sum, err := store.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum[wmap.Europe][dataset.ExtSVG].Files; got != steps+1 {
		t.Errorf("europe SVG files = %d, want %d", got, steps+1)
	}
	if got := sum[wmap.Europe][dataset.ExtYAML].Files; got != steps {
		t.Errorf("europe YAML files = %d, want %d", got, steps)
	}
	if sum[wmap.Europe][dataset.ExtYAML].Bytes >= sum[wmap.Europe][dataset.ExtSVG].Bytes {
		t.Error("YAML should be much smaller than SVG, as in the paper's Table 2")
	}

	// Coverage: a single uninterrupted segment per map.
	cov, err := store.CoverageOf(wmap.World, dataset.ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Segments) != 1 || cov.Count != steps {
		t.Errorf("world coverage = %+v", cov)
	}

	// Dataset-backed analysis agrees with simulator ground truth; the
	// parallel walk must feed the analysis exactly like a sequential walk
	// would.
	dsStream := func(yield func(*wmap.Map) error) error {
		return store.WalkMapsParallel(context.Background(), wmap.Europe, 4, yield)
	}
	loads, err := analysis.LoadCDF(dsStream)
	if err != nil {
		t.Fatal(err)
	}
	simStream := func(yield func(*wmap.Map) error) error {
		sim2, err := netsim.New(sc)
		if err != nil {
			return err
		}
		for at := from; at.Before(from.Add(6 * time.Hour)); at = at.Add(5 * time.Minute) {
			m, err := sim2.MapAt(wmap.Europe, at)
			if err != nil {
				return err
			}
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}
	truth, err := analysis.LoadCDF(simStream)
	if err != nil {
		t.Fatal(err)
	}
	if loads.Samples != truth.Samples {
		t.Fatalf("dataset samples = %d, truth %d", loads.Samples, truth.Samples)
	}
	if loads.P75All != truth.P75All || loads.MeanInternal != truth.MeanInternal {
		t.Errorf("dataset analysis diverges from ground truth: p75 %.2f vs %.2f, mean %.2f vs %.2f",
			loads.P75All, truth.P75All, loads.MeanInternal, truth.MeanInternal)
	}
}

// TestCollectorPipelineMatchesGenerator checks that a collector-driven
// campaign (through HTTP) produces byte-identical snapshots to direct
// generation — the two acquisition paths must be interchangeable.
func TestCollectorPipelineMatchesGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("collector pipeline in -short mode")
	}
	sc := netsim.DefaultScenario()

	// Path A: direct generation.
	simA, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache := render.NewSceneCache(render.Options{})
	at := sc.Start.Add(90 * time.Minute)
	mA, err := simA.MapAt(wmap.AsiaPacific, at)
	if err != nil {
		t.Fatal(err)
	}
	var direct strings.Builder
	if err := cache.WriteSVGCached(&direct, mA); err != nil {
		t.Fatal(err)
	}

	// Path B: served and collected over HTTP.
	simB, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv := collect.NewServer(simB, []wmap.MapID{wmap.AsiaPacific})
	if err := srv.SetTime(at); err != nil {
		t.Fatal(err)
	}
	req := newLocalRequest(t, srv, "/map/asia-pacific.svg")
	if req != direct.String() {
		t.Error("collector path and generator path produced different snapshots")
	}
}

// newLocalRequest performs an in-process request against the handler.
func newLocalRequest(t *testing.T, srv *collect.Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.String()
}
