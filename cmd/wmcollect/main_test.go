package main

import (
	"bytes"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// TestIngesterCachesPerMap feeds the -archive hook two maps' snapshots in
// the collector's poll order, alternating maps. Each map's topology is
// stable across the polls, so each map must miss its attribution cache
// exactly once and hit it on every later poll.
func TestIngesterCachesPerMap(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	scenes := render.NewSceneCache(render.Options{})
	in := newIngester(tsdb.NewWriter(&bytes.Buffer{}), extract.DefaultOptions())
	ids := []wmap.MapID{wmap.Europe, wmap.AsiaPacific}
	const polls = 3
	for p := 0; p < polls; p++ {
		at := sc.Start.Add(time.Duration(p) * 5 * time.Minute)
		for _, id := range ids {
			m, err := sim.MapAt(id, at)
			if err != nil {
				t.Fatal(err)
			}
			var svg bytes.Buffer
			if err := scenes.WriteSVGCached(&svg, m); err != nil {
				t.Fatal(err)
			}
			if err := in.onStored(id, at, svg.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if in.appended != polls*len(ids) || in.dropped != 0 {
		t.Fatalf("appended %d, dropped %d; want %d appended", in.appended, in.dropped, polls*len(ids))
	}
	for _, id := range ids {
		c := in.caches[id]
		if c == nil {
			t.Errorf("%s: no attribution cache", id)
			continue
		}
		if c.Misses() != 1 || c.Hits() != polls-1 {
			t.Errorf("%s: %d misses / %d hits, want 1 / %d", id, c.Misses(), c.Hits(), polls-1)
		}
	}
	if hits, misses := in.cacheTotals(); hits != len(ids)*(polls-1) || misses != len(ids) {
		t.Errorf("cache totals %d hits / %d misses, want %d / %d", hits, misses, len(ids)*(polls-1), len(ids))
	}
}
