package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
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

// TestPollOnGridStalledUpstream: against an upstream that accepts and
// never answers, each poll runs until the next one is due and that one
// starts at once, so three polls at 200 ms take about three intervals, not
// the five that waiting a full interval after every poll took. The polls
// keep the grid's slots and each one fails its fetch.
func TestPollOnGridStalledUpstream(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release)
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := &collect.Collector{BaseURL: hs.URL, Store: store, Maps: []wmap.MapID{wmap.Europe}, Retries: 2}

	const interval = 200 * time.Millisecond
	var slots []time.Time
	failed := 0
	start := time.Now()
	err = pollOnGrid(context.Background(), interval, 3, func(ctx context.Context, slot time.Time) error {
		slots = append(slots, slot)
		st, err := col.CollectAt(ctx, slot)
		failed += st.Failed
		return err
	})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < 3*interval || took >= 4*interval {
		t.Errorf("3 polls of a stalled upstream took %s, want about %s", took, 3*interval)
	}
	if len(slots) != 3 || failed != 3 {
		t.Fatalf("%d polls with %d failures, want 3 and 3", len(slots), failed)
	}
	for k, s := range slots {
		if d := s.Sub(slots[0]); d != time.Duration(k)*interval {
			t.Errorf("poll %d due %s after the first, want %s", k, d, time.Duration(k)*interval)
		}
	}
}

// TestPollOnGridSkipsMissedSlots: a poll that overruns its successor's
// whole interval (here by ignoring its context) costs that slot, not the
// grid: the next poll takes the slot after it.
func TestPollOnGridSkipsMissedSlots(t *testing.T) {
	const interval = 100 * time.Millisecond
	var slots []time.Time
	err := pollOnGrid(context.Background(), interval, 3, func(ctx context.Context, slot time.Time) error {
		if len(slots) == 0 {
			time.Sleep(5 * interval / 2)
		}
		slots = append(slots, slot)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 2 * interval, 3 * interval}
	for k, s := range slots {
		if d := s.Sub(slots[0]); d != want[k] {
			t.Errorf("poll %d due %s after the first, want %s", k, d, want[k])
		}
	}
}
