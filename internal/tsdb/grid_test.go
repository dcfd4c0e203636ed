package tsdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// randomGridArchive builds an archive of n 5-minute Europe snapshots with
// rng-driven loads. The par–fra link leaves for snapshots [n/4, n/3) and
// then returns, so the parallels change column while it is gone; half the
// runs grow the topology partway through so some links exist only in later
// blocks, and reverse the grown topology's column order in the last
// quarter. One archive in three is written in one-snapshot blocks, the
// shape a live writer leaves.
func randomGridArchive(t *testing.T, rng *rand.Rand) (*Reader, int) {
	t.Helper()
	n := 60 + rng.Intn(400)
	bp := 3 + rng.Intn(62)
	if rng.Intn(3) == 0 {
		bp = 1
	}
	grow := rng.Intn(2) == 1
	lo := func() int { return rng.Intn(101) }
	var maps []*wmap.Map
	for i := 0; i < n; i++ {
		var m *wmap.Map
		switch {
		case grow && i >= n/2:
			m = grownMap(wmap.Europe, at(5*i))
			if i >= 3*n/4 {
				slices.Reverse(m.Links)
			}
		case i >= n/4 && i < n/3:
			m = testMap(wmap.Europe, at(5*i), 0, 0, 0, 0, 0, 0)
			m.Links = m.Links[1:] // par–fra is the first link
		default:
			m = testMap(wmap.Europe, at(5*i), 0, 0, 0, 0, 0, 0)
		}
		for li := range m.Links {
			m.Links[li].LoadAB = wmap.Load(lo())
			m.Links[li].LoadBA = wmap.Load(lo())
		}
		maps = append(maps, m)
	}
	rd := openArchive(t, buildArchive(t, bp, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))
	return rd, n
}

// mapHasLinkReference is the original walk: whether any topology of the
// map's blocks carries the key.
func mapHasLinkReference(st *readerState, id wmap.MapID, key LinkKey) bool {
	seen := make(map[int]bool)
	for _, bi := range st.perMap[id] {
		ti := st.blocks[bi].topoIndex
		if seen[ti] {
			continue
		}
		seen[ti] = true
		if st.topos[ti].linkIndex(key) >= 0 {
			return true
		}
	}
	return false
}

// TestMapHasLinkMatchesWalk: over the random archives plus a second map
// carrying a link Europe never has, mapHasLink answers exactly what the
// topology walk does — for every key of every topology on each map, the
// other map's link, and a made-up key.
func TestMapHasLinkMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for arch := 0; arch < 6; arch++ {
		rd, n := randomGridArchive(t, rng)
		// Copy the Europe archive and add a World snapshot whose extra link
		// exists only on that map.
		var maps []*wmap.Map
		cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
		for cur.Next() {
			maps = append(maps, cur.MapView().Clone())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		world := testMap(wmap.World, at(5*n), 1, 2, 3, 4, 5, 6)
		world.Links = append(world.Links, wmap.Link{A: "fra-g1", B: "AMS-IX", LabelA: "#9", LabelB: "#9"})
		rd = openArchive(t, buildArchive(t, 8, append(maps, world)...))
		st := rd.st()

		keys, _ := st.topoKeyIndexes()
		probes := []LinkKey{
			{A: "fra-g1", B: "AMS-IX", LabelA: "#9", LabelB: "#9"}, // World only
			{A: "no", B: "pe", LabelA: "#1", LabelB: "#1"},         // nowhere
			{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1", Ordinal: 2},
		}
		for _, ks := range keys {
			probes = append(probes, ks...)
		}
		for _, id := range []wmap.MapID{wmap.Europe, wmap.World, wmap.AsiaPacific} {
			for _, k := range probes {
				if got, want := st.mapHasLink(id, k), mapHasLinkReference(st, id, k); got != want {
					t.Fatalf("archive %d: mapHasLink(%s, %s) = %v, walk says %v", arch, id, k, got, want)
				}
			}
		}
	}
}

// gridBody decodes a grid response into its header and raw per-link rows.
func gridBody(t *testing.T, h http.Handler, url string, wantCode int) (count int, rows []map[string]json.RawMessage) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %.200s)", url, rec.Code, wantCode, rec.Body)
	}
	if wantCode != http.StatusOK {
		return 0, nil
	}
	var v struct {
		Count int                          `json:"count"`
		Links []map[string]json.RawMessage `json:"links"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return v.Count, v.Links
}

// TestGridMatchesPerLink is the grid engine's core property: over random
// archives, windows, steps, and band settings — and with rollup serving on
// and off — every link row of /api/v1/grid must be byte-identical, series
// by series, to the /api/v1/links/{id}/load response for the same query.
func TestGridMatchesPerLink(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	steps := []time.Duration{7 * time.Minute, 15 * time.Minute, time.Hour, 2 * time.Hour, 24 * time.Hour}
	series := []string{"ab", "ba"}
	bandSeries := []string{"ab", "ba", "ab_min", "ab_max", "ba_min", "ba_max"}

	for arch := 0; arch < 4; arch++ {
		rd, n := randomGridArchive(t, rng)
		h := NewAPIHandler(rd)
		rd.rollupOff.Store(arch == 3) // one archive exercises the raw-only path

		windows := []string{""}
		for w := 0; w < 2; w++ {
			from := at(5 * rng.Intn(n))
			to := from.Add(time.Duration(1+rng.Intn(n)) * 5 * time.Minute)
			windows = append(windows, "&from="+from.Format(time.RFC3339)+"&to="+to.Format(time.RFC3339))
		}
		for _, step := range steps {
			for _, win := range windows {
				for _, bands := range []string{"", "&bands=1"} {
					q := "?map=europe&step=" + step.String() + win + bands
					count, rows := gridBody(t, h, "/api/v1/grid"+q, http.StatusOK)
					if count != len(rows) {
						t.Fatalf("grid%s: count %d but %d rows", q, count, len(rows))
					}
					if len(rows) == 0 {
						t.Fatalf("grid%s: empty universe", q)
					}
					want := series
					if bands != "" {
						want = bandSeries
					}
					for _, row := range rows {
						var linkID string
						if err := json.Unmarshal(row["id"], &linkID); err != nil {
							t.Fatalf("grid%s: bad row id: %v", q, err)
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/links/"+linkID+"/load"+q, nil))
						if rec.Code != http.StatusOK {
							t.Fatalf("GET /links/%s/load%s = %d (%s)", linkID, q, rec.Code, rec.Body)
						}
						var per map[string]json.RawMessage
						if err := json.Unmarshal(rec.Body.Bytes(), &per); err != nil {
							t.Fatal(err)
						}
						for _, s := range want {
							if string(row[s]) != string(per[s]) {
								t.Fatalf("grid%s link %s series %q diverges:\n grid %.120s\n link %.120s",
									q, linkID, s, row[s], per[s])
							}
						}
					}
				}
			}
		}

		// A links= subset must keep the requested order and the same bytes.
		_, all := gridBody(t, h, "/api/v1/grid?map=europe&step=1h", http.StatusOK)
		var ids []string
		for _, row := range all {
			var s string
			json.Unmarshal(row["id"], &s)
			ids = append(ids, s)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		sub := ids[:1+rng.Intn(len(ids))]
		count, rows := gridBody(t, h, "/api/v1/grid?map=europe&step=1h&links="+strings.Join(sub, ","), http.StatusOK)
		if count != len(sub) {
			t.Fatalf("links= subset: count %d, want %d", count, len(sub))
		}
		for i, row := range rows {
			var got string
			json.Unmarshal(row["id"], &got)
			if got != sub[i] {
				t.Fatalf("links= subset row %d = %s, want %s (order must be preserved)", i, got, sub[i])
			}
		}

		// The equivalence must have covered both legs: tier-served links when
		// rollups are on, raw-only when forced off.
		gs := rd.GridStats()
		if arch != 3 && gs.LinksPlanned == 0 {
			t.Errorf("archive %d: no link ever served from a rollup tier (%+v)", arch, gs)
		}
		if gs.LinksRaw == 0 {
			t.Errorf("archive %d: no link ever served raw (%+v)", arch, gs)
		}
	}
}

// TestGridScanErrors covers the validation and bounding paths.
func TestGridScanErrors(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 1200; i++ { // hourly for 50 days: big span, small archive
		maps = append(maps, testMap(wmap.Europe, base.Add(time.Duration(i)*time.Hour), 1, 2, 3, 4, 5, 6))
	}
	rd := openArchive(t, buildArchive(t, 64, maps...))

	ctx := context.Background()
	if _, err := rd.gridScan(ctx, wmap.Europe, nil, time.Time{}, time.Time{}, 0, false); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := rd.gridScan(ctx, wmap.Europe, nil, time.Time{}, time.Time{}, 500*time.Millisecond, false); err == nil {
		t.Error("sub-second step accepted")
	}
	if _, err := rd.gridScan(ctx, wmap.World, nil, time.Time{}, time.Time{}, time.Hour, false); !errors.Is(err, ErrUnknownMap) {
		t.Errorf("unknown map error = %v", err)
	}
	bogus := LinkKey{A: "no", B: "pe", LabelA: "#1", LabelB: "#1"}
	if _, err := rd.gridScan(ctx, wmap.Europe, []LinkKey{bogus}, time.Time{}, time.Time{}, time.Hour, false); !errors.Is(err, ErrUnknownLink) {
		t.Errorf("unknown link error = %v", err)
	}

	// 50 days at step=1s is ~4.3M cells per link: over the cap, and the
	// hint must be a plannable (tier-aligned) coarser step.
	_, err := rd.gridScan(ctx, wmap.Europe, nil, time.Time{}, time.Time{}, time.Second, false)
	var tooBig *GridTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("oversized grid error = %v, want GridTooLargeError", err)
	}
	if tooBig.Cells <= tooBig.Max || tooBig.Hint <= time.Second {
		t.Errorf("bad cap error %+v", tooBig)
	}
	if tooBig.Hint%(24*time.Hour) != 0 {
		t.Errorf("hint %s not aligned to the coarsest tier", tooBig.Hint)
	}

	// Same failure through HTTP: a 400 carrying the hint, on the grid and
	// on a per-link stepped query alike.
	h := NewAPIHandler(rd)
	linkLoad := "/api/v1/links/" + LinkKeysOf(maps[0])[0].ID(wmap.Europe) + "/load"
	for _, u := range []string{"/api/v1/grid?map=europe&step=1s", linkLoad + "?step=1s"} {
		v := getJSON(t, h, u, http.StatusBadRequest)
		if msg, _ := v["error"].(string); !strings.Contains(msg, "step=") {
			t.Errorf("GET %s: cap error %q does not hint at a coarser step", u, msg)
		}
	}

	// A sub-second step is rejected before any work: resampling 50 days
	// at 1ms would otherwise walk billions of windows without ever
	// checking the request context.
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, linkLoad+"?step=1ms", nil))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusBadRequest {
			t.Errorf("per-link step=1ms = %d, want 400", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("per-link step=1ms still running after 5s")
	}
}

// TestPerLinkStepDecodeAndCounters: a stepped per-link query is a one-key
// scan that decodes only that link's columns — on a fresh cache it leaves
// no fully decoded raw block behind — and counts in PlannerStats, not
// GridStats; a grid request counts the other way round.
func TestPerLinkStepDecodeAndCounters(t *testing.T) {
	rd, _ := randomGridArchive(t, rand.New(rand.NewSource(21)))
	h := NewAPIHandler(rd)
	keys, _ := rd.st().topoKeyIndexes()
	id := keys[0][0].ID(wmap.Europe)

	if code, body := getRaw(t, h, "/api/v1/links/"+id+"/load?step=7m"); code != http.StatusOK {
		t.Fatalf("per-link step=7m: status %d (%s)", code, body)
	}
	c := rd.BlockCache()
	rawEntries := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.byKey {
			if k.kind != kindRaw {
				continue
			}
			rawEntries++
			if k.group == allColumns {
				t.Errorf("per-link query decoded raw block %d with every column", k.block)
			}
		}
		sh.mu.Unlock()
	}
	if rawEntries == 0 {
		t.Fatal("per-link query left no raw block in the cache")
	}
	ps, gs := rd.PlannerStats(), rd.GridStats()
	if ps.Raw != 1 || len(ps.Tiers) != 0 || gs.Queries != 0 {
		t.Fatalf("after one per-link query: planner %+v, grid %+v; want 1 raw, no grid query", ps, gs)
	}

	if code, body := getRaw(t, h, "/api/v1/grid?map=europe&step=7m"); code != http.StatusOK {
		t.Fatalf("grid step=7m: status %d (%s)", code, body)
	}
	ps2, gs2 := rd.PlannerStats(), rd.GridStats()
	if ps2.Raw != 1 || len(ps2.Tiers) != 0 || gs2.Queries != 1 {
		t.Errorf("after one grid query: planner %+v, grid %+v; want planner unchanged, 1 grid query", ps2, gs2)
	}
}

// TestGridHTTP covers the endpoint's protocol surface: parameter
// validation, conditional GET, Content-Length on unstreamed bodies, and the
// stats group.
func TestGridHTTP(t *testing.T) {
	h, sample := apiFixture(t)
	url := "/api/v1/grid?map=europe&step=10m"

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on grid response")
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("If-None-Match replay = %d with %d body bytes, want 304 empty", rec.Code, rec.Body.Len())
	}
	// bands must change the tag: same scan, different representation.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url+"&bands=1", nil))
	if tag2 := rec.Header().Get("ETag"); tag2 == etag || tag2 == "" {
		t.Errorf("bands tag = %q vs %q, want distinct", tag2, etag)
	}

	count, rows := gridBody(t, h, url, http.StatusOK)
	if count != 3 || len(rows) != 3 {
		t.Fatalf("grid universe = %d rows, want 3", len(rows))
	}
	// First-seen topology order: the universe matches LinkKeysOf.
	for i, k := range LinkKeysOf(sample) {
		var got string
		json.Unmarshal(rows[i]["id"], &got)
		if got != k.ID(wmap.Europe) {
			t.Errorf("universe[%d] = %s, want %s", i, got, k.ID(wmap.Europe))
		}
	}

	getJSON(t, h, "/api/v1/grid?map=europe", http.StatusBadRequest)                  // no step
	getJSON(t, h, "/api/v1/grid?map=europe&step=fast", http.StatusBadRequest)        // bad step
	getJSON(t, h, "/api/v1/grid?map=europe&step=-1h", http.StatusBadRequest)         // negative
	getJSON(t, h, "/api/v1/grid?step=1h", http.StatusBadRequest)                     // no map
	getJSON(t, h, "/api/v1/grid?map=asia-pacific&step=1h", http.StatusNotFound)      // unknown map
	getJSON(t, h, "/api/v1/grid?map=europe&step=1h&links=nope", http.StatusNotFound) // unknown link
	// A link id of another map must not resolve onto this one.
	worldID := LinkKeysOf(sample)[0].ID(wmap.World)
	getJSON(t, h, "/api/v1/grid?map=europe&step=1h&links="+worldID, http.StatusNotFound)

	v := getJSON(t, h, "/api/v1/stats", http.StatusOK)
	grid, ok := v["grid"].(map[string]any)
	if !ok {
		t.Fatalf("stats carries no grid group: %v", v)
	}
	if grid["queries"].(float64) < 1 || grid["rows"].(float64) < 1 {
		t.Errorf("grid counters = %v, want recorded queries and rows", grid)
	}
}

// cancelOnWriteRecorder cancels a context the first time the handler
// flushes, simulating a client that disconnects mid-stream.
type cancelOnWriteRecorder struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (c *cancelOnWriteRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.cancel()
	return c.ResponseRecorder.Write(p)
}

// TestGridCancellation: a pre-cancelled request answers 499 before any scan
// work; a cancellation after the first streamed flush stops the encode
// without corrupting state; serveWindowLoad's post-scan guard answers 499.
func TestGridCancellation(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 1200; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i%100, (2*i)%100, (3*i)%100, (4*i)%100, (5*i)%100, (6*i)%100))
	}
	rd := openArchive(t, buildArchive(t, 16, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))
	h := NewAPIHandler(rd)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/grid?map=europe&step=5m", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("pre-cancelled grid = %d, want %d", rec.Code, statusClientClosedRequest)
	}

	// bands=1 over 1200 snapshots at raw step crosses gridFlushBytes, so
	// the response streams; cancelling at the first flush must stop it.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	req = httptest.NewRequest(http.MethodGet, "/api/v1/grid?map=europe&step=5m&bands=1", nil).WithContext(ctx)
	cw := &cancelOnWriteRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	h.ServeHTTP(cw, req)
	if cw.writes == 0 {
		t.Fatal("streaming grid never flushed; corpus too small for the test")
	}
	if cw.writes > 2 { // the flush that triggered the cancel (+ at most one racing boundary)
		t.Errorf("handler kept writing after cancellation: %d writes", cw.writes)
	}
	if s := rd.GridStats(); s.Streamed == 0 {
		t.Errorf("streamed counter = %+v, want at least one streamed response", s)
	}

	// The per-link window path's own guard: scan done, client gone.
	a := &api{rd: rd, maxPoints: DefaultMaxResponsePoints}
	key := LinkKeysOf(maps[0])[0]
	res, err := rd.gridScan(context.Background(), wmap.Europe, []LinkKey{key}, time.Time{}, time.Time{}, time.Hour, false)
	if err != nil || res.links[0].lw.wins == nil {
		t.Fatalf("one-link scan = %+v, %v", res, err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	req = httptest.NewRequest(http.MethodGet, "/x", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	a.serveWindowLoad(rec, req, key.ID(wmap.Europe), wmap.Europe, key, time.Time{}, time.Time{}, time.Hour, false, &res.links[0].lw)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("serveWindowLoad after cancel = %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestGridColumnsMatchesCursor proves the columnar fold sees exactly the
// per-snapshot loads the cursor serves, across topology changes and window
// trims.
func TestGridColumnsMatchesCursor(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 40; i++ {
		if i >= 25 {
			maps = append(maps, grownMap(wmap.Europe, at(5*i)))
		} else {
			maps = append(maps, testMap(wmap.Europe, at(5*i), i, 2*i%100, 3*i%100, i, i, i))
		}
	}
	rd := openArchive(t, buildArchive(t, 7, maps...))
	from, to := at(15), at(170)

	type cell struct {
		ab, ba wmap.Load
	}
	got := map[int64]map[LinkKey]cell{}
	err := rd.GridColumns(context.Background(), wmap.Europe, from, to, func(c *GridChunk) error {
		if len(c.Keys) != len(c.Links) || len(c.AB) != len(c.Keys) || len(c.BA) != len(c.Keys) {
			return fmt.Errorf("ragged chunk: %d keys, %d links, %d/%d cols", len(c.Keys), len(c.Links), len(c.AB), len(c.BA))
		}
		for k, sec := range c.Times {
			row := got[sec]
			if row == nil {
				row = map[LinkKey]cell{}
				got[sec] = row
			}
			for li, key := range c.Keys {
				row[key] = cell{c.AB[li][k], c.BA[li][k]}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cur := rd.CursorParallel(context.Background(), wmap.Europe, from, to, 1)
	defer cur.Close()
	snaps := 0
	for cur.Next() {
		m := cur.MapView()
		snaps++
		row := got[m.Time.Unix()]
		if row == nil {
			t.Fatalf("cursor snapshot %v missing from the columnar scan", m.Time)
		}
		for i, key := range LinkKeysOf(m) {
			c := row[key]
			if c.ab != m.Links[i].LoadAB || c.ba != m.Links[i].LoadBA {
				t.Fatalf("%v link %s: grid (%d,%d) vs cursor (%d,%d)",
					m.Time, key, c.ab, c.ba, m.Links[i].LoadAB, m.Links[i].LoadBA)
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != snaps {
		t.Fatalf("columnar scan yielded %d snapshots, cursor %d", len(got), snaps)
	}
}

// TestGridConcurrentConsistency hammers the grid endpoint from 32
// goroutines over shared cached readers: every response must be
// byte-identical to the single-threaded serve, while identical in-flight
// queries collapse onto shared scans. The second archive is written in
// one-snapshot blocks and changes topology twice (a grown link, then the
// grown topology's columns reversed), and its hour-aligned step=1h queries
// plan onto the 1h tier, so both legs read column vectors of several
// topologies. Run under -race this also proves the fan-in accumulators,
// the column vectors and singleflight are data-race free.
func TestGridConcurrentConsistency(t *testing.T) {
	var flat []*wmap.Map
	for i := 0; i < 24; i++ {
		flat = append(flat, testMap(wmap.Europe, at(5*i), 10+i%50, 20+i%50, 30+i%50, 40+i%50, 50+i%40, 60+i%40))
	}
	keys := LinkKeysOf(flat[0])
	var tail []*wmap.Map
	for i := 0; i < 48; i++ {
		var m *wmap.Map
		switch {
		case i < 16:
			m = testMap(wmap.Europe, at(5*i), i%100, 2*i%100, 3*i%100, 4*i%100, 5*i%100, 6*i%100)
		case i < 32:
			m = grownMap(wmap.Europe, at(5*i))
		default:
			m = grownMap(wmap.Europe, at(5*i))
			slices.Reverse(m.Links)
		}
		for li := range m.Links {
			m.Links[li].LoadAB = wmap.Load((7*i + 13*li) % 101)
		}
		tail = append(tail, m)
	}
	hour := "&from=" + at(60).Format(time.RFC3339) + "&to=" + at(235).Format(time.RFC3339)

	type target struct {
		h   http.Handler
		url string
	}
	var targets []target
	for _, a := range []struct {
		blockPoints int
		maps        []*wmap.Map
		urls        []string
	}{
		{4, flat, []string{
			"/api/v1/grid?map=europe&step=5m",
			"/api/v1/grid?map=europe&step=15m",
			"/api/v1/grid?map=europe&step=15m&bands=1",
			"/api/v1/grid?map=europe&step=1h",
			"/api/v1/grid?map=europe&step=10m&from=" + at(10).Format(time.RFC3339) + "&to=" + at(60).Format(time.RFC3339),
			"/api/v1/grid?map=europe&step=10m&links=" + keys[1].ID(wmap.Europe) + "," + keys[0].ID(wmap.Europe),
			"/api/v1/grid?map=europe&step=1h&links=bogus", // deterministic error path
		}},
		{1, tail, []string{
			"/api/v1/grid?map=europe&step=1h",
			"/api/v1/grid?map=europe&step=1h&bands=1" + hour,
			"/api/v1/grid?map=europe&step=15m",
			"/api/v1/links/" + keys[2].ID(wmap.Europe) + "/load?step=1h" + hour,
		}},
	} {
		rd := openArchive(t, buildArchive(t, a.blockPoints, a.maps...))
		rd.SetBlockCache(NewBlockCache(1 << 20))
		h := NewAPIHandler(rd)
		for _, u := range a.urls {
			targets = append(targets, target{h, u})
		}
		if a.blockPoints == 1 {
			// The tail archive's hour-aligned grid must plan links onto a
			// tier and still serve some raw, or only one leg is raced.
			if code, body := getRaw(t, h, "/api/v1/grid?map=europe&step=1h"+hour); code != http.StatusOK {
				t.Fatalf("tail archive grid: status %d (%s)", code, body)
			}
			if gs := rd.GridStats(); gs.LinksPlanned == 0 || gs.LinksRaw == 0 {
				t.Fatalf("tail archive grid stats %+v: want both planned and raw links", gs)
			}
		}
	}
	serve := func(tg target) (int, string) {
		rec := httptest.NewRecorder()
		tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tg.url, nil))
		return rec.Code, rec.Body.String()
	}
	wantCode := make([]int, len(targets))
	wantBody := make([]string, len(targets))
	for i, tg := range targets {
		wantCode[i], wantBody[i] = serve(tg)
	}

	const goroutines = 32
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(targets)
				code, body := serve(targets[i])
				if code != wantCode[i] || body != wantBody[i] {
					errs <- fmt.Errorf("goroutine %d round %d %s: code %d body %d bytes, want %d / %d bytes",
						g, r, targets[i].url, code, len(body), wantCode[i], len(wantBody[i]))
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
}
