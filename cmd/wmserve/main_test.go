package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/events"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// failingSource always refuses to produce a map, so every SetTime fails —
// the condition the consecutive-failure cap exists for.
type failingSource struct{}

func (failingSource) MapAt(id wmap.MapID, at time.Time) (*wmap.Map, error) {
	return nil, errors.New("synthetic failure")
}

// TestRunClockFailureCap checks the virtual clock gives up with an error
// after maxTickFailures consecutive SetTime failures instead of spinning.
func TestRunClockFailureCap(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	site := collect.NewServer(failingSource{}, []wmap.MapID{wmap.Europe})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := runClock(ctx, site, time.Unix(0, 0), time.Minute, time.Millisecond)
	if err == nil {
		t.Fatal("runClock returned nil; want the consecutive-failure error (or the test context expired)")
	}
	if ctx.Err() != nil {
		t.Fatalf("runClock did not hit the cap within the test timeout: %v", err)
	}
}

// tinyArchive writes a one-snapshot, one-link archive and returns its path
// and the link's query-API id.
func tinyArchive(t *testing.T) (path, linkID string) {
	t.Helper()
	path = t.TempDir() + "/a.tsdb"
	w, err := tsdb.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m := &wmap.Map{
		ID:    wmap.Europe,
		Time:  time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC),
		Nodes: []wmap.Node{{Name: "par-g1", Kind: wmap.Router}, {Name: "fra-g1", Kind: wmap.Router}},
		Links: []wmap.Link{{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: 10, LoadBA: 20}},
	}
	if err := w.Append(m); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, tsdb.LinkKeysOf(m)[0].ID(wmap.Europe)
}

// openReader opens path and closes the reader when the test ends.
func openReader(t *testing.T, path string) *tsdb.Reader {
	t.Helper()
	rd, err := tsdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

// TestNewHandlerMountsArchiveAPI builds a tiny archive and checks the
// handler wiring: the query API, the stats endpoint, and expvar all
// respond, and the block cache is attached to the reader (repeat topology
// serves record hits).
func TestNewHandlerMountsArchiveAPI(t *testing.T) {
	path, _ := tinyArchive(t)
	rd := openReader(t, path)

	h := newHandler(http.NotFoundHandler(), rd, 1<<20, nil, newHealth("starting"))
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	for _, url := range []string{"/api/v1/maps", "/api/v1/stats", "/api/v1/events", "/debug/vars", "/healthz"} {
		if rec := get(url); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d (%s)", url, rec.Code, rec.Body)
		}
	}
	// Without a live hub the stream endpoint refuses rather than hanging.
	if rec := get("/api/v1/stream"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("GET /api/v1/stream without hub = %d, want 503", rec.Code)
	}
	get("/api/v1/topology?map=europe")
	get("/api/v1/topology?map=europe")
	if s := rd.BlockCache().Stats(); s.Hits == 0 {
		t.Errorf("cache not wired: stats %+v after repeated topology serves", s)
	}
	body := get("/debug/vars").Body.String()
	for _, name := range []string{"tsdb_block_cache", "tsdb_planner", "tsdb_grid", "tsdb_events"} {
		if !strings.Contains(body, `"`+name+`"`) {
			t.Errorf("expvar page lacks %s", name)
		}
	}

	// Without an archive the site handler serves unchanged, but the health
	// probes still answer.
	plain := newHandler(http.NotFoundHandler(), nil, 1<<20, nil, newHealth("starting"))
	if rec := httptest.NewRecorder(); true {
		plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/maps", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("archiveless /api/v1/maps = %d, want the site's 404", rec.Code)
		}
	}
	if rec := httptest.NewRecorder(); true {
		plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("archiveless /healthz = %d, want 200", rec.Code)
		}
	}
}

// TestNewHandlerRebindsExpvars: expvar names are process-global, so a
// second newHandler must rebind them to its own reader — /debug/vars then
// reports the second reader's counters, not the first's.
func TestNewHandlerRebindsExpvars(t *testing.T) {
	path, linkID := tinyArchive(t)
	stepped := "/api/v1/links/" + linkID + "/load?step=5m"
	serve := func(h http.Handler, url string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", url, rec.Code, rec.Body)
		}
		return rec
	}

	h1 := newHandler(http.NotFoundHandler(), openReader(t, path), 1<<20, nil, newHealth("starting"))
	serve(h1, stepped)
	rd2 := openReader(t, path)
	h2 := newHandler(http.NotFoundHandler(), rd2, 1<<20, nil, newHealth("starting"))
	serve(h2, stepped)
	serve(h2, stepped)
	serve(h2, "/api/v1/grid?map=europe&step=5m")

	var vars struct {
		Planner tsdb.PlannerStats `json:"tsdb_planner"`
		Grid    tsdb.GridStats    `json:"tsdb_grid"`
	}
	if err := json.Unmarshal(serve(h2, "/debug/vars").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if want := rd2.PlannerStats(); vars.Planner.Raw != 2 || vars.Planner.Raw != want.Raw {
		t.Errorf("tsdb_planner = %+v, want the second reader's %+v (2 raw serves)", vars.Planner, want)
	}
	if vars.Grid.Queries != 1 {
		t.Errorf("tsdb_grid = %+v, want the second reader's 1 grid query", vars.Grid)
	}
}

// TestHealthProbes checks the readiness split: /healthz is always 200,
// /readyz serves 503 with the pending reason until markReady, then 200.
func TestHealthProbes(t *testing.T) {
	hs := newHealth("live tail has not caught up with the writer yet")
	h := newHandler(http.NotFoundHandler(), nil, 0, nil, hs)
	probe := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	if rec := probe("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	rec := probe("/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "caught up") {
		t.Fatalf("/readyz before ready = %d %q", rec.Code, rec.Body)
	}
	hs.markReady()
	if rec := probe("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after markReady = %d, want 200", rec.Code)
	}
}

// TestRunRefresherPublishesEventsAndReadies drives the live loop end to
// end: a writer appends congestion-bearing snapshots while the refresher
// polls; the first successful poll must flip readiness, and each adopted
// commit must republish the newly committed events to the hub.
func TestRunRefresherPublishesEventsAndReadies(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	path := t.TempDir() + "/live.tsdb"
	w, err := tsdb.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	snap := func(i int, load wmap.Load) *wmap.Map {
		return &wmap.Map{
			ID:    wmap.Europe,
			Time:  base.Add(time.Duration(i) * 5 * time.Minute),
			Nodes: []wmap.Node{{Name: "par-g1", Kind: wmap.Router}, {Name: "fra-g1", Kind: wmap.Router}},
			Links: []wmap.Link{{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: load, LoadBA: 20}},
		}
	}
	if err := w.Append(snap(0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rd, err := tsdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	hub := events.NewBroadcaster()
	defer hub.Close()
	sub := hub.Subscribe(16)
	defer sub.Close()
	hs := newHealth("catching up")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runRefresher(ctx, rd, time.Millisecond, hub, hs)
	}()

	// Crossing the onset threshold commits one congestion event.
	if err := w.Append(snap(1, 70)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C():
		if ev.Type != events.TypeCongestionOnset || ev.A != "par-g1" {
			t.Fatalf("streamed event = %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("committed event never reached the hub")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !hs.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("refresher never marked the server ready")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

// TestRunClockStopsOnCancel checks cancellation ends the clock cleanly with
// a nil error, the graceful-shutdown path.
func TestRunClockStopsOnCancel(t *testing.T) {
	site := collect.NewServer(failingSource{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runClock(ctx, site, time.Unix(0, 0), time.Minute, time.Hour); err != nil {
		t.Fatalf("cancelled runClock = %v, want nil", err)
	}
}
