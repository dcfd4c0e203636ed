package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// apiFixture builds a handler over an archive of 8 Europe snapshots (5 min
// apart, parallel peering links with a constant 20-point spread) plus one
// World snapshot, and returns the handler and a sample snapshot for ids.
func apiFixture(t *testing.T) (http.Handler, *wmap.Map) {
	t.Helper()
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	maps = append(maps, testMap(wmap.World, at(0), 1, 2, 3, 4, 5, 6))
	rd := openArchive(t, buildArchive(t, 3, maps...))
	return NewAPIHandler(rd), maps[0]
}

// getJSON performs an in-process request and decodes the JSON body.
func getJSON(t *testing.T, h http.Handler, url string, wantCode int) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantCode, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return v
}

func TestAPIMaps(t *testing.T) {
	h, _ := apiFixture(t)
	v := getJSON(t, h, "/api/v1/maps", http.StatusOK)
	maps := v["maps"].([]any)
	if len(maps) != 2 {
		t.Fatalf("maps = %v", maps)
	}
	first := maps[0].(map[string]any)
	if first["map"] != "europe" || first["snapshots"] != float64(8) {
		t.Errorf("europe row = %v", first)
	}
}

func TestAPITopology(t *testing.T) {
	h, sample := apiFixture(t)
	// Default at: the map's last snapshot.
	v := getJSON(t, h, "/api/v1/topology?map=europe", http.StatusOK)
	if got, err := time.Parse(time.RFC3339, v["time"].(string)); err != nil || !got.Equal(at(35)) {
		t.Errorf("default at = %v (%v), want %v", v["time"], err, at(35))
	}
	links := v["links"].([]any)
	if len(links) != 3 || len(v["nodes"].([]any)) != 3 {
		t.Fatalf("topology shape: %d links, %v nodes", len(links), v["nodes"])
	}
	// The served link ids are the stable LinkKey ids, parallels told apart.
	keys := LinkKeysOf(sample)
	seen := map[string]bool{}
	for i, l := range links {
		row := l.(map[string]any)
		if row["id"] != keys[i].ID(wmap.Europe) {
			t.Errorf("link %d id = %v, want %s", i, row["id"], keys[i].ID(wmap.Europe))
		}
		if seen[row["id"].(string)] {
			t.Errorf("duplicate link id %v", row["id"])
		}
		seen[row["id"].(string)] = true
	}
	// Explicit at pins the snapshot (and its loads).
	v = getJSON(t, h, "/api/v1/topology?map=europe&at="+at(12).Format(time.RFC3339), http.StatusOK)
	row := v["links"].([]any)[0].(map[string]any)
	if row["load_ab"] != float64(12) { // snapshot at minute 10 is i=2
		t.Errorf("pinned-at load_ab = %v, want 12", row["load_ab"])
	}

	getJSON(t, h, "/api/v1/topology", http.StatusBadRequest)
	getJSON(t, h, "/api/v1/topology?map=asia-pacific", http.StatusNotFound)
	getJSON(t, h, "/api/v1/topology?map=europe&at=yesterday", http.StatusBadRequest)
	v = getJSON(t, h, "/api/v1/topology?map=europe&at=1999-01-01T00:00:00Z", http.StatusNotFound)
	if v["error"] == nil {
		t.Error("error payload missing")
	}
}

func TestAPILinkLoad(t *testing.T) {
	h, sample := apiFixture(t)
	id := LinkKeysOf(sample)[2].ID(wmap.Europe) // second parallel, ordinal 1

	v := getJSON(t, h, "/api/v1/links/"+id+"/load", http.StatusOK)
	if v["ordinal"] != float64(1) || v["a"] != "par-g1" || v["b"] != "AMS-IX" {
		t.Errorf("link identity = %v", v)
	}
	ab := v["ab"].([]any)
	if len(ab) != 8 {
		t.Fatalf("ab len = %d", len(ab))
	}
	if p := ab[3].(map[string]any); p["v"] != float64(53) {
		t.Errorf("ab[3] = %v, want v=53", p)
	}

	// from/to restrict, step resamples through stats.TimeSeries.Resample.
	u := "/api/v1/links/" + id + "/load?from=" + at(0).Format(time.RFC3339) +
		"&to=" + at(15).Format(time.RFC3339) + "&step=10m"
	v = getJSON(t, h, u, http.StatusOK)
	ab = v["ab"].([]any)
	if len(ab) != 2 {
		t.Fatalf("resampled ab = %v", ab)
	}
	if p := ab[0].(map[string]any); p["v"] != 50.5 { // mean of 50, 51
		t.Errorf("resampled ab[0] = %v, want 50.5", p)
	}

	getJSON(t, h, "/api/v1/links/doesnotexist/load", http.StatusNotFound)
	getJSON(t, h, "/api/v1/links/"+id+"/load?step=fast", http.StatusBadRequest)
	getJSON(t, h, "/api/v1/links/"+id+"/load?from=noon", http.StatusBadRequest)
}

func TestAPIImbalance(t *testing.T) {
	h, _ := apiFixture(t)
	v := getJSON(t, h, "/api/v1/imbalance?map=europe&at="+at(0).Format(time.RFC3339), http.StatusOK)
	rows := v["imbalances"].([]any)
	if len(rows) != 2 { // one directed set per direction of the parallel pair
		t.Fatalf("imbalances = %v", rows)
	}
	for _, r := range rows {
		row := r.(map[string]any)
		if row["spread"] != float64(20) || row["links"] != float64(2) || row["internal"] != false {
			t.Errorf("imbalance row = %v, want spread 20 over 2 external links", row)
		}
	}
	getJSON(t, h, "/api/v1/imbalance?map=world&at=1999-01-01T00:00:00Z", http.StatusNotFound)
	getJSON(t, h, "/api/v1/imbalance", http.StatusBadRequest)
}

// imbalanceRow is one row of the /api/v1/imbalance response, in its field
// order.
type imbalanceRow struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Internal bool   `json:"internal"`
	Spread   int    `json:"spread"`
	Links    int    `json:"links"`
}

// referenceImbalanceRows is the Figure 5c imbalance of every directed set
// of parallel links as first written: group the links by their sorted
// endpoints, order the groups by those names, and visit each group from
// its first endpoint, then from its second, dropping 0 % and 1 % loads and
// the sets left with fewer than two links.
func referenceImbalanceRows(m *wmap.Map) []imbalanceRow {
	type group struct {
		a, b  string
		links []wmap.Link
	}
	var groups []*group
	byPair := map[[2]string]*group{}
	for _, l := range m.Links {
		a, b := l.Endpoints()
		g := byPair[[2]string{a, b}]
		if g == nil {
			g = &group{a: a, b: b}
			byPair[[2]string{a, b}] = g
			groups = append(groups, g)
		}
		g.links = append(g.links, l)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].a != groups[j].a {
			return groups[i].a < groups[j].a
		}
		return groups[i].b < groups[j].b
	})
	rows := []imbalanceRow{}
	for _, g := range groups {
		internal := wmap.KindOfName(g.a) == wmap.Router && wmap.KindOfName(g.b) == wmap.Router
		for _, dir := range [2][2]string{{g.a, g.b}, {g.b, g.a}} {
			var kept []wmap.Load
			for _, l := range g.links {
				load := l.LoadBA
				if dir[0] == l.A {
					load = l.LoadAB
				}
				if load > 1 {
					kept = append(kept, load)
				}
			}
			if len(kept) < 2 {
				continue
			}
			mn, mx := slices.Min(kept), slices.Max(kept)
			rows = append(rows, imbalanceRow{From: dir[0], To: dir[1], Internal: internal, Spread: int(mx) - int(mn), Links: len(kept)})
		}
	}
	return rows
}

// TestAPIImbalanceRows pins the whole /api/v1/imbalance body, row order
// included, on a map with five parallel groups: internal and external
// sets, links listed in both orientations, repeated labels, and sets the
// paper's filters drop (a single link, a set left with one load above
// 1 %).
func TestAPIImbalanceRows(t *testing.T) {
	nodes := []wmap.Node{
		{Name: "par-g1", Kind: wmap.Router},
		{Name: "fra-g1", Kind: wmap.Router},
		{Name: "lon-g1", Kind: wmap.Router},
		{Name: "AMS-IX", Kind: wmap.Peering},
		{Name: "VODAFONE", Kind: wmap.Peering},
	}
	links := []wmap.Link{
		{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: 30, LoadBA: 10},
		{A: "fra-g1", B: "par-g1", LabelA: "#2", LabelB: "#2", LoadAB: 12, LoadBA: 35},
		{A: "par-g1", B: "fra-g1", LabelA: "#3", LabelB: "#3", LoadAB: 1, LoadBA: 0},
		{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1", LoadAB: 40, LoadBA: 5},
		{A: "AMS-IX", B: "par-g1", LabelA: "#1", LabelB: "#1", LoadAB: 1, LoadBA: 52},
		{A: "lon-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: 60, LoadBA: 61},
		{A: "lon-g1", B: "fra-g1", LabelA: "#2", LabelB: "#2", LoadAB: 0, LoadBA: 70},
		{A: "lon-g1", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 20, LoadBA: 20},
		{A: "fra-g1", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 33, LoadBA: 44},
		{A: "fra-g1", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 37, LoadBA: 41},
	}
	var maps []*wmap.Map
	for i := 0; i < 3; i++ {
		m := &wmap.Map{ID: wmap.Europe, Time: at(5 * i), Nodes: nodes, Links: slices.Clone(links)}
		for j := range m.Links {
			if l := &m.Links[j]; l.LoadAB > 1 { // loads move, the filtered ones stay filtered
				l.LoadAB = wmap.Load(int(l.LoadAB) + 3*i*(j%3))
			}
		}
		maps = append(maps, m)
	}
	h := NewAPIHandler(openArchive(t, buildArchive(t, 2, maps...)))
	for _, m := range maps {
		rows := referenceImbalanceRows(m)
		if len(rows) != 6 {
			t.Fatalf("fixture yields %d rows, want 6: %+v", len(rows), rows)
		}
		want, err := json.Marshal(struct {
			Map        string         `json:"map"`
			Time       time.Time      `json:"time"`
			Imbalances []imbalanceRow `json:"imbalances"`
		}{"europe", m.Time, rows})
		if err != nil {
			t.Fatal(err)
		}
		url := "/api/v1/imbalance?map=europe&at=" + m.Time.Format(time.RFC3339)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", url, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Errorf("GET %s:\n got %s\nwant %s", url, got, want)
		}
	}
}

// TestAPIConditionalGet exercises the ETag protocol: a 200 carries a tag
// and Content-Length, replaying the tag yields a bodyless 304, a different
// query yields a different tag, and pinned history is marked immutable.
func TestAPIConditionalGet(t *testing.T) {
	h, sample := apiFixture(t)
	id := LinkKeysOf(sample)[0].ID(wmap.Europe)
	url := "/api/v1/links/" + id + "/load"

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, rec.Code, rec.Body)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted tag", etag)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Errorf("Cache-Control = %q", cc)
	}

	// Replay with If-None-Match: 304, empty body, same tag.
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("If-None-Match replay = %d with %d body bytes, want 304 empty", rec.Code, rec.Body.Len())
	}

	// A stale or foreign tag still serves the entity.
	req = httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"stale"`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("stale tag = %d, want 200", rec.Code)
	}

	// A different query must not share the tag.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url+"?step=10m", nil))
	if tag2 := rec.Header().Get("ETag"); tag2 == etag {
		t.Errorf("step query reused tag %q", tag2)
	}

	// Fully pinned history is immutable; default windows must revalidate.
	pinned := url + "?from=" + at(0).Format(time.RFC3339) + "&to=" + at(15).Format(time.RFC3339)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pinned, nil))
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("pinned-history Cache-Control = %q, want immutable", cc)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if cc := rec.Header().Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Errorf("default-window Cache-Control = %q, must not be immutable", cc)
	}
}

// TestAPILinkLoadPointCap drops the response cap to 10 points and checks
// the oversized raw query is rejected with a step hint while the
// resampled equivalent passes.
func TestAPILinkLoadPointCap(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	rd := openArchive(t, buildArchive(t, 3, maps...))
	a := &api{rd: rd, maxPoints: 10}
	h := a.routes()
	id := LinkKeysOf(maps[0])[0].ID(wmap.Europe)

	v := getJSON(t, h, "/api/v1/links/"+id+"/load", http.StatusBadRequest) // 16 raw points > 10
	if msg, _ := v["error"].(string); !strings.Contains(msg, "step") {
		t.Errorf("cap error %q does not hint at step", msg)
	}
	getJSON(t, h, "/api/v1/links/"+id+"/load?step=20m", http.StatusOK) // resampled: allowed
	// A narrow raw window fits under the cap.
	u := "/api/v1/links/" + id + "/load?from=" + at(0).Format(time.RFC3339) + "&to=" + at(10).Format(time.RFC3339)
	getJSON(t, h, u, http.StatusOK)
}

// TestAPILinkLoadCancelled serves a request whose context is already
// cancelled: the handler must bail with 499 instead of decoding.
func TestAPILinkLoadCancelled(t *testing.T) {
	h, sample := apiFixture(t)
	id := LinkKeysOf(sample)[0].ID(wmap.Europe)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/links/"+id+"/load", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled request = %d, want %d", rec.Code, statusClientClosedRequest)
	}

	req = httptest.NewRequest(http.MethodGet, "/api/v1/imbalance?map=europe", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled imbalance = %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestAPIErrorStatuses reaches the error statuses the endpoint tests above
// leave alone: min/max bands without a step, a sub-second step, a corrupt
// raw block (500, never a wrong body), and a client that hung up before
// /topology began (499, as /imbalance and the load series answer).
func TestAPIErrorStatuses(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	data := buildArchive(t, 3, maps...)
	clean := openArchive(t, data)
	h := NewAPIHandler(clean)
	load := "/api/v1/links/" + LinkKeysOf(maps[0])[0].ID(wmap.Europe) + "/load"

	getJSON(t, h, load+"?bands=1", http.StatusBadRequest)
	getJSON(t, h, load+"?step=500ms", http.StatusBadRequest)

	// Flip one payload byte in every raw block: the footer still parses,
	// the per-block CRC fails at decode time.
	bad := append([]byte(nil), data...)
	for _, m := range clean.st().blocks {
		bad[m.offset+4+int64(m.payloadLen)/2] ^= 0xFF
	}
	hb := NewAPIHandler(openArchive(t, bad))
	getJSON(t, hb, "/api/v1/topology?map=europe", http.StatusInternalServerError)
	getJSON(t, hb, load, http.StatusInternalServerError)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/topology?map=europe", nil).WithContext(ctx))
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled topology = %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestAPIStats checks the stats endpoint reports archive shape and live
// cache counters.
func TestAPIStats(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	rd := openArchive(t, buildArchive(t, 3, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))
	h := NewAPIHandler(rd)

	v := getJSON(t, h, "/api/v1/stats", http.StatusOK)
	arch := v["archive"].(map[string]any)
	if arch["snapshots"] != float64(8) || arch["blocks"] != float64(3) {
		t.Errorf("archive stats = %v", arch)
	}
	bc := v["block_cache"].(map[string]any)
	if bc["enabled"] != true {
		t.Fatalf("block_cache = %v", bc)
	}

	// Hit the same topology twice; the second serve must be a cache hit.
	getJSON(t, h, "/api/v1/topology?map=europe", http.StatusOK)
	getJSON(t, h, "/api/v1/topology?map=europe", http.StatusOK)
	v = getJSON(t, h, "/api/v1/stats", http.StatusOK)
	cs := v["block_cache"].(map[string]any)["stats"].(map[string]any)
	if cs["hits"].(float64) < 1 || cs["misses"].(float64) < 1 {
		t.Errorf("cache stats after repeated topology = %v", cs)
	}
}

// TestAPIConcurrentConsistency hammers every endpoint from 32 goroutines
// over one shared cached reader and requires each response to be
// byte-identical to the single-threaded serve — the invariant the
// immutable shared cache and singleflight exist to keep. Run under
// -race this also proves the serving path is data-race free.
func TestAPIConcurrentConsistency(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 24; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i%50, 20+i%50, 30+i%50, 40+i%50, 50+i%40, 60+i%40))
	}
	maps = append(maps, testMap(wmap.World, at(0), 1, 2, 3, 4, 5, 6))
	rd := openArchive(t, buildArchive(t, 4, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))
	h := NewAPIHandler(rd)

	keys := LinkKeysOf(maps[0])
	urls := []string{
		"/api/v1/maps",
		"/api/v1/topology?map=europe",
		"/api/v1/topology?map=europe&at=" + at(22).Format(time.RFC3339),
		"/api/v1/links/" + keys[0].ID(wmap.Europe) + "/load",
		"/api/v1/links/" + keys[2].ID(wmap.Europe) + "/load?step=15m",
		"/api/v1/links/" + keys[1].ID(wmap.Europe) + "/load?from=" + at(10).Format(time.RFC3339) + "&to=" + at(60).Format(time.RFC3339),
		"/api/v1/imbalance?map=europe",
		"/api/v1/imbalance?map=world",
		"/api/v1/topology?map=nowhere", // error paths must be deterministic too
	}
	serve := func(url string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	wantCode := make([]int, len(urls))
	wantBody := make([]string, len(urls))
	for i, u := range urls {
		wantCode[i], wantBody[i] = serve(u)
	}

	const goroutines = 32
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(urls)
				code, body := serve(urls[i])
				if code != wantCode[i] || body != wantBody[i] {
					errs <- fmt.Errorf("goroutine %d round %d %s: code %d body %d bytes, want %d / %d bytes",
						g, r, urls[i], code, len(body), wantCode[i], len(wantBody[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := rd.BlockCache().Stats(); s.Hits == 0 {
		t.Errorf("hammer recorded no cache hits: %+v", s)
	}
}

func TestAPIMethodNotAllowed(t *testing.T) {
	h, _ := apiFixture(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/maps", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/maps = %d, want 405", rec.Code)
	}
}
