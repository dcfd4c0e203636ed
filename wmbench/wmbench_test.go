package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// TestMonthsRender renders the full ingest pool of every month a seed can
// pick, so no seed fails set-up on the layout gap.
func TestMonthsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every month's pool")
	}
	for _, month := range months {
		sim, err := newSimulator()
		if err != nil {
			t.Fatal(err)
		}
		from := change(month).Add(-time.Duration(realSizes.poolTicks/2) * tick)
		scenes := render.NewSceneCache(render.Options{})
		links := 0
		for k := 0; k < realSizes.poolTicks; k++ {
			maps, err := sim.SnapshotAt(from.Add(time.Duration(k) * tick))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range maps {
				if m.ID == wmap.Europe && k == 0 {
					links = len(m.Links)
				}
				if _, err := renderSVG(scenes, m); err != nil {
					t.Errorf("%s: %v", month.Format("2006-01"), err)
				}
			}
		}
		t.Logf("%s: Europe has %d links", month.Format("2006-01"), links)
	}
}

// tinySizes keep each tiny run of a workload to a few seconds.
var tinySizes = sizes{
	setupReps:       1,
	checkEvery:      1 << 20, // op 0 only
	poolTicks:       4,
	historyTicks:    30,
	tailTicks:       30,
	window:          2 * time.Hour,
	figSnapshots:    48,
	figBlockPoints:  8,
	figWindowBlocks: 3,
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	cfg := &config{workload: workload, seed: seed, seconds: 0.2, trace: trace, dir: t.TempDir(), sz: tinySizes, log: io.Discard}
	res, err := bench(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d: correct %v, %d of %d ops failed", workload, seed, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got metricSet, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), declared with unit %s", what, name, m, ok, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// otherMonth returns a seed that picks a different month than seed.
func otherMonth(seed int64) int64 {
	_, m := seeded(seed)
	for s := seed + 1; ; s++ {
		if _, o := seeded(s); !o.Equal(m) {
			return s
		}
	}
}

// TestWorkloads runs every workload at tiny sizes: outputs pass their
// checks, every declared metric is printed with its unit, and the
// deterministic counts repeat for one seed and change with the month.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range []string{"ingest", "dashboard", "figures"} {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 1, false)
			sameMetrics(t, name+" --trace 0", a.Metrics, endToEnd)
			traced := tinyRun(t, name, 1, true)
			sameMetrics(t, name+" --trace 1", traced.Metrics, perLayer)

			b := tinyRun(t, name, 1, false)
			c := tinyRun(t, name, otherMonth(1), false)
			bps := func(r *result) float64 { return r.Metrics["bytes_per_snapshot"].Value }
			if bps(a) != bps(b) {
				t.Errorf("bytes_per_snapshot %v then %v for one seed", bps(a), bps(b))
			}
			if bps(a) == bps(c) {
				t.Errorf("bytes_per_snapshot %v for two months", bps(a))
			}
			if name == "ingest" {
				again := tinyRun(t, name, 1, true)
				for _, k := range []string{"extract.cache_misses", "tsdb.blocks_written", "tsdb.bytes_written"} {
					if traced.Metrics[k] != again.Metrics[k] {
						t.Errorf("%s: %v then %v for one seed", k, traced.Metrics[k].Value, again.Metrics[k].Value)
					}
				}
				if traced.Metrics["extract.cache_misses"].Value == 0 {
					t.Error("the pool's topology change cost no attribution misses")
				}
			}
			if cov := traced.Metrics["bench.span_coverage"].Value; cov < 0.95 {
				t.Errorf("layer spans cover %.3f of op time, want >= 0.95", cov)
			}
		})
	}
}
