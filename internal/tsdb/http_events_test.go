package tsdb

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// eventAPIFixture serves the eventMaps archive (congestion onset at(5) and
// clear at(10) on the europe par-g1→fra-g1 link) with live streaming
// through hub.
func eventAPIFixture(t *testing.T) (http.Handler, *events.Broadcaster) {
	t.Helper()
	rd := openArchive(t, buildArchive(t, 0, eventMaps()...))
	hub := events.NewBroadcaster()
	t.Cleanup(hub.Close)
	return NewAPIHandlerWithStream(rd, hub), hub
}

func TestAPIEvents(t *testing.T) {
	h, _ := eventAPIFixture(t)

	v := getJSON(t, h, "/api/v1/events", http.StatusOK)
	if v["count"] != float64(2) {
		t.Fatalf("count = %v, want 2", v["count"])
	}
	rows := v["events"].([]any)
	first := rows[0].(map[string]any)
	if first["type"] != "congestion-onset" || first["map"] != "europe" ||
		first["a"] != "par-g1" || first["b"] != "fra-g1" || first["label_a"] != "#1" ||
		first["ordinal"] != float64(0) || first["load"] != float64(70) {
		t.Errorf("first event row = %v", first)
	}
	if s, _ := first["summary"].(string); s == "" {
		t.Errorf("summary missing: %v", first)
	}
	if ts, err := time.Parse(time.RFC3339, first["time"].(string)); err != nil || !ts.Equal(at(5)) {
		t.Errorf("first event time = %v (%v), want %v", first["time"], err, at(5))
	}

	// Filters: by type, by map, by window.
	v = getJSON(t, h, "/api/v1/events?type=congestion-clear", http.StatusOK)
	if v["count"] != float64(1) {
		t.Errorf("type filter count = %v", v["count"])
	}
	v = getJSON(t, h, "/api/v1/events?map=europe", http.StatusOK)
	if v["count"] != float64(2) || v["map"] != "europe" {
		t.Errorf("map filter = %v", v)
	}
	u := "/api/v1/events?from=" + at(6).Format(time.RFC3339) + "&to=" + at(20).Format(time.RFC3339)
	v = getJSON(t, h, u, http.StatusOK)
	if v["count"] != float64(1) {
		t.Errorf("window count = %v", v["count"])
	}

	getJSON(t, h, "/api/v1/events?type=earthquake", http.StatusBadRequest)
	getJSON(t, h, "/api/v1/events?from=yesterday", http.StatusBadRequest)
	getJSON(t, h, "/api/v1/events?map=atlantis", http.StatusNotFound)
}

// TestAPIEventsConditionalGet checks the events endpoint speaks the same
// ETag protocol as the load endpoints: replayed tags 304, pinned windows
// are immutable, and the tag changes with the query.
func TestAPIEventsConditionalGet(t *testing.T) {
	h, _ := eventAPIFixture(t)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/events", nil))
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("GET /events = %d, ETag %q", rec.Code, etag)
	}
	if cc := rec.Header().Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Errorf("open-window Cache-Control = %q, must not be immutable", cc)
	}

	req := httptest.NewRequest(http.MethodGet, "/api/v1/events", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("replayed tag = %d with %d body bytes, want 304 empty", rec.Code, rec.Body.Len())
	}

	pinned := "/api/v1/events?from=" + at(0).Format(time.RFC3339) + "&to=" + at(20).Format(time.RFC3339)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pinned, nil))
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("pinned-window Cache-Control = %q, want immutable", cc)
	}
	if tag2 := rec.Header().Get("ETag"); tag2 == etag {
		t.Errorf("pinned query reused tag %q", tag2)
	}
}

func TestAPIEventsPointCap(t *testing.T) {
	rd := openArchive(t, buildArchive(t, 0, eventMaps()...))
	a := &api{rd: rd, maxPoints: 1}
	h := a.routes()
	v := getJSON(t, h, "/api/v1/events", http.StatusBadRequest)
	if msg, _ := v["error"].(string); !strings.Contains(msg, "from/to") {
		t.Errorf("cap error %q does not hint at narrowing", msg)
	}
	getJSON(t, h, "/api/v1/events?type=congestion-clear", http.StatusOK)
}

// TestAPIEventsCorruptFrame flips a payload byte in every event frame: the
// footer still opens, and /events answers 500 instead of a partial list.
func TestAPIEventsCorruptFrame(t *testing.T) {
	data := buildArchive(t, 0, eventMaps()...)
	evs := openArchive(t, data).st().events
	if len(evs) == 0 {
		t.Fatal("fixture archive has no event frames")
	}
	bad := append([]byte(nil), data...)
	for _, m := range evs {
		bad[m.offset+4+int64(m.payloadLen)/2] ^= 0xFF
	}
	getJSON(t, NewAPIHandler(openArchive(t, bad)), "/api/v1/events", http.StatusInternalServerError)
}

// TestAPIEventsStatsGroup checks /api/v1/stats reports the event-log
// footprint and, with a hub attached, the broadcaster counters.
func TestAPIEventsStatsGroup(t *testing.T) {
	h, hub := eventAPIFixture(t)
	hub.Publish(events.Event{Map: wmap.Europe, Type: events.TypeChurn, Time: at(0)})

	v := getJSON(t, h, "/api/v1/stats", http.StatusOK)
	if arch := v["archive"].(map[string]any); arch["event_blocks"] != float64(1) {
		t.Errorf("archive.event_blocks = %v, want 1", arch["event_blocks"])
	}
	ev := v["events"].(map[string]any)
	if ev["streaming"] != true || ev["frames"] != float64(1) {
		t.Fatalf("events group = %v", ev)
	}
	bc := ev["broadcast"].(map[string]any)
	if bc["published"] != float64(1) {
		t.Errorf("broadcast stats = %v", bc)
	}

	// Without a hub the group reports disabled and /stream refuses.
	plain := NewAPIHandler(openArchive(t, buildArchive(t, 0, eventMaps()...)))
	v = getJSON(t, plain, "/api/v1/stats", http.StatusOK)
	if ev := v["events"].(map[string]any); ev["streaming"] != false {
		t.Errorf("hubless events group = %v", ev)
	}
	getJSON(t, plain, "/api/v1/stream", http.StatusServiceUnavailable)
}

// sseClient collects events from one /api/v1/stream connection until the
// body closes, reporting each "event:" name and "data:" payload line.
type sseFrame struct {
	name string
	data string
}

func readSSE(t *testing.T, resp *http.Response, frames chan<- sseFrame, ready chan<- struct{}) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == ": connected":
			close(ready)
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			frames <- cur
			cur = sseFrame{}
		}
	}
}

func TestAPIStreamDelivers(t *testing.T) {
	h, hub := eventAPIFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/stream?type=congestion-onset")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	frames := make(chan sseFrame, 16)
	ready := make(chan struct{})
	go readSSE(t, resp, frames, ready)
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("no connected comment")
	}

	// The clear event is filtered out by the type parameter; only the
	// onset may arrive.
	hub.Publish(events.Event{Map: wmap.Europe, Type: events.TypeCongestionClear, Time: at(10), A: "par-g1", B: "fra-g1", LabelA: "#1", Load: 30})
	hub.Publish(events.Event{Map: wmap.Europe, Type: events.TypeCongestionOnset, Time: at(5), A: "par-g1", B: "fra-g1", LabelA: "#1", Load: 70})
	select {
	case f := <-frames:
		if f.name != "congestion-onset" {
			t.Fatalf("frame name = %q", f.name)
		}
		if !strings.Contains(f.data, `"load":70`) || !strings.Contains(f.data, `"map":"europe"`) {
			t.Fatalf("frame data = %q", f.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never arrived")
	}
	resp.Body.Close()
}

// TestAPIStreamConcurrentLiveAppend is the end-to-end race check: a live
// archive ingesting snapshots while its new events are republished to 32
// concurrent SSE subscribers. Every keep-up subscriber must see every
// event in order, and deliberately stalled direct subscribers must be
// counted as drops, not block ingest. Run with -race.
func TestAPIStreamConcurrentLiveAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(testMap(wmap.Europe, at(0), 30, 10, 20, 30, 40, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	hub := events.NewBroadcaster()
	defer hub.Close()
	srv := httptest.NewServer(NewAPIHandlerWithStream(rd, hub))
	defer srv.Close()

	// Two stalled subscribers with tiny queues: they never drain, so the
	// publish loop must drop for them rather than stall.
	stalled := []*events.Subscriber{hub.Subscribe(1), hub.Subscribe(1)}
	defer stalled[0].Close()
	defer stalled[1].Close()

	const subscribers = 32
	const rounds = 24 // load alternates 70/30: one event per snapshot
	type got struct {
		frames []sseFrame
		err    error
	}
	results := make(chan got, subscribers)
	var ready sync.WaitGroup
	ready.Add(subscribers)
	for s := 0; s < subscribers; s++ {
		go func() {
			resp, err := http.Get(srv.URL + "/api/v1/stream")
			if err != nil {
				ready.Done()
				results <- got{err: err}
				return
			}
			frames := make(chan sseFrame, rounds+4)
			connected := make(chan struct{})
			go readSSE(t, resp, frames, connected)
			select {
			case <-connected:
			case <-time.After(10 * time.Second):
				ready.Done()
				results <- got{err: fmt.Errorf("subscriber never connected")}
				resp.Body.Close()
				return
			}
			ready.Done()
			g := got{}
			for len(g.frames) < rounds {
				select {
				case f := <-frames:
					g.frames = append(g.frames, f)
				case <-time.After(20 * time.Second):
					g.err = fmt.Errorf("timed out after %d/%d frames", len(g.frames), rounds)
					results <- g
					resp.Body.Close()
					return
				}
			}
			resp.Body.Close()
			results <- g
		}()
	}
	ready.Wait()

	// The wmserve publish loop: append, sync, refresh, republish what the
	// archive newly committed.
	frontier := rd.EventFrames()
	published := 0
	for i := 1; i <= rounds; i++ {
		load := 30
		if i%2 == 1 {
			load = 70
		}
		if err := w.Append(testMap(wmap.Europe, at(5*i), load, 10, 20, 30, 40, 10)); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Refresh(); err != nil {
			t.Fatal(err)
		}
		evs, n, err := rd.EventsSince(t.Context(), frontier)
		if err != nil {
			t.Fatal(err)
		}
		frontier = n
		for i := range evs {
			hub.Publish(evs[i])
			published++
		}
	}
	if published != rounds {
		t.Fatalf("published %d events, want %d", published, rounds)
	}

	for s := 0; s < subscribers; s++ {
		g := <-results
		if g.err != nil {
			t.Fatal(g.err)
		}
		for i, f := range g.frames {
			want := "congestion-clear"
			if i%2 == 0 {
				want = "congestion-onset"
			}
			if f.name != want {
				t.Fatalf("subscriber frame %d = %q, want %q", i, f.name, want)
			}
			wantTime := at(5 * (i + 1)).Format(time.RFC3339)
			if !strings.Contains(f.data, wantTime) {
				t.Fatalf("frame %d data %q missing time %s", i, f.data, wantTime)
			}
		}
	}
	if st := hub.Stats(); st.Dropped == 0 {
		t.Errorf("stalled subscribers recorded no drops: %+v", st)
	} else if st.Published != uint64(published) {
		t.Errorf("hub published = %d, want %d", st.Published, published)
	}
}
