package collect

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ovhweather/internal/dataset"
	"ovhweather/internal/netsim"
	"ovhweather/internal/status"
	"ovhweather/internal/wmap"
)

func newFixture(t *testing.T) (*Server, *netsim.Simulator, netsim.Scenario) {
	t.Helper()
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(sim, wmap.AllMaps()), sim, sc
}

func TestServerServesCurrentSVG(t *testing.T) {
	srv, _, sc := newFixture(t)
	if err := srv.SetTime(sc.Start); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/map/europe.svg")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
	if len(body) < 10_000 {
		t.Errorf("suspiciously small SVG: %d bytes", len(body))
	}

	resp, err = http.Get(hs.URL + "/maps")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(list) != "europe\nworld\nnorth-america\nasia-pacific\n" {
		t.Errorf("maps list = %q", list)
	}

	for _, bad := range []string{"/map/mars.svg", "/nope", "/map/europe/archive/99", "/map/europe/archive/xx"} {
		resp, err := http.Get(hs.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s should not be OK", bad)
		}
	}
}

func TestServerArchiveRetention(t *testing.T) {
	srv, _, sc := newFixture(t)
	// Tick through two hours at five-minute steps.
	for m := 0; m <= 120; m += 5 {
		if err := srv.SetTime(sc.Start.Add(time.Duration(m) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, hour := range []int{0, 1, 2} {
		resp, err := http.Get(hs.URL + "/map/europe/archive/" + string(rune('0'+hour)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("archive hour %d: status %d", hour, resp.StatusCode)
		}
	}
	resp, _ := http.Get(hs.URL + "/map/europe/archive/5")
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("hour 5 should not be archived yet")
	}
}

func TestPlanOutagesAndSkips(t *testing.T) {
	p := DefaultPlan()
	during := time.Date(2021, time.March, 1, 12, 0, 0, 0, time.UTC)
	if p.ShouldCollect(wmap.World, during) {
		t.Error("world should be in outage in March 2021")
	}
	if !p.ShouldCollect(wmap.Europe, during) {
		t.Error("europe should collect in March 2021 (outside all-map outages)")
	}
	allMapOutage := time.Date(2021, time.March, 14, 5, 0, 0, 0, time.UTC)
	if p.ShouldCollect(wmap.Europe, allMapOutage) {
		t.Error("all-maps outage should suppress europe")
	}

	// Skip rates: Europe loses less than 1% of snapshots before the fix and
	// even less after; non-Europe maps lose noticeably more before Oct 2021.
	countMisses := func(id wmap.MapID, from time.Time, n int) int {
		misses := 0
		for i := 0; i < n; i++ {
			if !p.ShouldCollect(id, from.Add(time.Duration(i)*5*time.Minute)) {
				misses++
			}
		}
		return misses
	}
	pre := time.Date(2022, time.February, 1, 0, 0, 0, 0, time.UTC)
	post := time.Date(2022, time.June, 1, 0, 0, 0, 0, time.UTC)
	const n = 20000
	preMiss := countMisses(wmap.Europe, pre, n)
	postMiss := countMisses(wmap.Europe, post, n)
	if preMiss == 0 {
		t.Error("expected some pre-fix misses on europe")
	}
	if float64(preMiss)/n > 0.01 {
		t.Errorf("europe pre-fix miss rate %.4f too high", float64(preMiss)/n)
	}
	if postMiss >= preMiss {
		t.Errorf("fix did not reduce misses: %d -> %d", preMiss, postMiss)
	}
	naMiss := countMisses(wmap.NorthAmerica, pre, n)
	if naMiss <= preMiss {
		t.Errorf("non-Europe map should miss more: na=%d europe=%d", naMiss, preMiss)
	}
}

func TestPlanDeterministic(t *testing.T) {
	p := DefaultPlan()
	at := time.Date(2021, time.July, 1, 10, 5, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		if p.ShouldCollect(wmap.Europe, at) != p.ShouldCollect(wmap.Europe, at) {
			t.Fatal("ShouldCollect not deterministic")
		}
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	srv, _, sc := newFixture(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{
		BaseURL: hs.URL,
		Store:   store,
		Plan:    Plan{}, // no outages, no skips
		Maps:    wmap.AllMaps(),
		Retries: 1,
	}
	end := sc.Start.Add(30 * time.Minute)
	stats, err := col.Run(sc.Start, end, 5*time.Minute, srv.SetTime)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched != 7*len(wmap.AllMaps()) {
		t.Errorf("fetched = %d, want %d", stats.Fetched, 7*len(wmap.AllMaps()))
	}
	if stats.Failed != 0 || stats.Skipped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	times, err := store.Times(wmap.Europe, dataset.ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 7 {
		t.Fatalf("stored snapshots = %d", len(times))
	}
	cov := dataset.CoverageOfTimes(wmap.Europe, times)
	if len(cov.Segments) != 1 || cov.Segments[0].Count != 7 {
		t.Errorf("coverage = %+v", cov)
	}
}

func TestCollectorRespectsOutage(t *testing.T) {
	srv, _, sc := newFixture(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{
		BaseURL: hs.URL,
		Store:   store,
		Plan: Plan{Outages: []Outage{{
			Map:  wmap.World,
			From: sc.Start,
			To:   sc.Start.Add(time.Hour),
		}}},
		Maps: wmap.AllMaps(),
	}
	stats, err := col.Run(sc.Start, sc.Start.Add(10*time.Minute), 5*time.Minute, srv.SetTime)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 3 {
		t.Errorf("skipped = %d, want 3 (world at each of 3 ticks)", stats.Skipped)
	}
	worldTimes, _ := store.Times(wmap.World, dataset.ExtSVG)
	if len(worldTimes) != 0 {
		t.Errorf("world snapshots = %d, want 0", len(worldTimes))
	}
}

func TestCollectorRetriesAndFails(t *testing.T) {
	// A server that always 500s: every fetch fails, none stored.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer hs.Close()
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{BaseURL: hs.URL, Store: store, Maps: []wmap.MapID{wmap.Europe}, Retries: 2}
	stats, err := col.CollectAt(time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Fetched != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestServerStatusFeed(t *testing.T) {
	srv, _, sc := newFixture(t)
	if err := srv.SetTime(sc.Start); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("without a feed: status %d, want 404", resp.StatusCode)
	}

	srv.SetStatusFeed(status.FromScenario(sc))
	resp, err = http.Get(hs.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var feed []status.Event
	err = json.NewDecoder(resp.Body).Decode(&feed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(feed) == 0 {
		t.Error("served feed is empty")
	}
}

func TestConditionalGet(t *testing.T) {
	srv, _, sc := newFixture(t)
	if err := srv.SetTime(sc.Start); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{BaseURL: hs.URL, Store: store, Maps: []wmap.MapID{wmap.Europe}}

	// Two polls without a server refresh in between: the second must come
	// back 304 and still archive a (cached) snapshot.
	st1, err := col.CollectAt(sc.Start)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := col.CollectAt(sc.Start.Add(5 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Fetched != 1 || st1.NotModified != 0 {
		t.Errorf("first poll = %+v", st1)
	}
	if st2.Fetched != 0 || st2.NotModified != 1 {
		t.Errorf("second poll = %+v, want a 304 hit", st2)
	}
	times, _ := store.Times(wmap.Europe, dataset.ExtSVG)
	if len(times) != 2 {
		t.Fatalf("stored = %d, want both timestamps archived", len(times))
	}
	a, _ := store.ReadSnapshot(wmap.Europe, times[0], dataset.ExtSVG)
	b, _ := store.ReadSnapshot(wmap.Europe, times[1], dataset.ExtSVG)
	if string(a) != string(b) {
		t.Error("304 should archive the identical cached body")
	}

	// After a refresh, the content changes and a fresh 200 is fetched.
	if err := srv.SetTime(sc.Start.Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	st3, err := col.CollectAt(sc.Start.Add(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fetched != 1 || st3.NotModified != 0 {
		t.Errorf("post-refresh poll = %+v", st3)
	}
}
