package tsdb

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// The rollup battery. The central property mirrors the live-append one:
// whatever path serves a resampled load query — pre-aggregated tiers, a
// hybrid of tiers plus a raw tail, or the raw scan — the response bytes are
// identical. The planner is an optimization with no observable surface
// beyond latency and the stats counters.

// randMap builds a snapshot with pseudo-random loads at the standard test
// cadence; grown selects the four-link topology so a series can cross
// topology changes mid-range.
func randMap(r *rand.Rand, i int, grown bool) *wmap.Map {
	loads := make([]int, 6)
	for k := range loads {
		loads[k] = r.Intn(101)
	}
	m := testMap(wmap.Europe, at(5*i), loads...)
	if grown {
		m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
		m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#1", LabelB: "#1",
			LoadAB: wmap.Load(r.Intn(101)), LoadBA: wmap.Load(r.Intn(101))})
	}
	return m
}

// getRaw performs an in-process request and returns status and raw body.
func getRaw(t *testing.T, h http.Handler, url string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.Bytes()
}

// assertPlannedEqualsRaw serves url once with rollup serving on and once
// with it off and requires byte-identical 200 responses, leaving serving on.
func assertPlannedEqualsRaw(t *testing.T, rd *Reader, h http.Handler, url string) {
	t.Helper()
	rd.rollupOff.Store(false)
	c1, b1 := getRaw(t, h, url)
	planned := append([]byte(nil), b1...)
	rd.rollupOff.Store(true)
	c2, raw := getRaw(t, h, url)
	rd.rollupOff.Store(false)
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("GET %s: status %d planned / %d raw", url, c1, c2)
	}
	if !bytes.Equal(planned, raw) {
		t.Fatalf("GET %s: planned response differs from raw response:\nplanned: %s\nraw:     %s", url, planned, raw)
	}
}

// TestRollupEquivalenceProperty: over a pseudo-random 51-hour series that
// crosses two topology changes, every divisor step — 1h-tier multiples,
// 1d-tier multiples, with and without bands, full-range and sub-range —
// serves byte-identically from the planner and from the raw scan. Steps no
// tier divides stay on the raw path and trivially agree.
func TestRollupEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 620 // ~51h40m of 5-minute snapshots: both default tiers seal buckets
	var maps []*wmap.Map
	for i := 0; i < n; i++ {
		maps = append(maps, randMap(r, i, i >= 200 && i < 400))
	}
	rd := openArchive(t, buildArchive(t, 64, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))
	h := NewAPIHandler(rd)
	id := LinkKeysOf(maps[0])[0].ID(wmap.Europe)

	// A sub-range starting exactly at a block base that is hour-aligned: the
	// planner can prove the anchor and serve the bulk from the 1h tier.
	sub := "&from=" + at(5*192).Format(time.RFC3339) + "&to=" + at(5*480).Format(time.RFC3339)
	queries := []string{
		"step=1h", "step=2h", "step=3h", "step=5h", // 1h tier
		"step=24h", "step=48h", // 1d tier
		"step=25h",                            // 1d does not divide 25h; 1h does
		"step=1h&bands=1", "step=24h&bands=1", // min/max bands from rollup extremes
		"step=10m", "step=35m", // no divisor: raw on both sides
		"step=1h" + sub, // hybrid over a sub-range crossing fragment merges
	}
	for _, q := range queries {
		assertPlannedEqualsRaw(t, rd, h, "/api/v1/links/"+id+"/load?"+q)
	}

	ps := rd.PlannerStats()
	if ps.Tiers["1h"] == 0 || ps.Tiers["1d"] == 0 {
		t.Errorf("planner tiers never served: %+v", ps)
	}
	if ps.Raw == 0 {
		t.Errorf("raw counter never moved: %+v", ps)
	}
	if ps.Fallbacks != 0 {
		t.Errorf("unexpected corrupt-rollup fallbacks: %+v", ps)
	}
}

// TestRollupOverCapHint: a range too big to serve raw is rejected with a
// step suggestion the planner can actually serve from a tier.
func TestRollupOverCapHint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var maps []*wmap.Map
	for i := 0; i < 620; i++ {
		maps = append(maps, randMap(r, i, false))
	}
	rd := openArchive(t, buildArchive(t, 64, maps...))
	a := &api{rd: rd, maxPoints: 200}
	h := a.routes()
	id := LinkKeysOf(maps[0])[0].ID(wmap.Europe)

	v := getJSON(t, h, "/api/v1/links/"+id+"/load", http.StatusBadRequest) // 1240 raw points > 200
	msg, _ := v["error"].(string)
	if !strings.Contains(msg, "step=1h") {
		t.Fatalf("over-cap error %q does not suggest the 1h tier", msg)
	}
	// Following the hint works, and is served from the tier it named.
	getJSON(t, h, "/api/v1/links/"+id+"/load?step=1h", http.StatusOK)
	if ps := rd.PlannerStats(); ps.Tiers["1h"] == 0 {
		t.Errorf("suggested step not served from the 1h tier: %+v", ps)
	}
}

// TestRollupRecoveryRebuildsTailBucket extends the torn-tail crash matrix
// to rollup state: a crash after a commit that flushed some rollup buckets
// but left the current bucket partially accumulated (plus a torn
// uncommitted tail) must resume into the exact byte stream of a writer that
// never crashed — the partial bucket's points are replayed from raw blocks.
func TestRollupRecoveryRebuildsTailBucket(t *testing.T) {
	const committed = 200 // past the 16-sealed-bucket flush threshold: a rollup block is on disk
	const total = 230
	mk := func(i int) *wmap.Map {
		m := seqMap(wmap.Europe, i)
		if i >= 210 { // a topology change after the resume point
			m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
			m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#1", LabelB: "#1",
				LoadAB: wmap.Load((13 * i) % 101), LoadBA: wmap.Load((17 * i) % 101)})
		}
		return m
	}

	// Reference: the same appends and the same commit, no crash.
	refPath := filepath.Join(t.TempDir(), "ref.tsdb")
	w, err := OpenAppend(refPath)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	for i := 0; i < committed; i++ {
		if err := w.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := committed; i < total; i++ {
		if err := w.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: same commit, then uncommitted appends the crash tears away.
	livePath := filepath.Join(t.TempDir(), "live.tsdb")
	w2, err := OpenAppend(livePath)
	if err != nil {
		t.Fatal(err)
	}
	w2.SetBlockPoints(4)
	for i := 0; i < committed; i++ {
		if err := w2.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := committed; i < committed+3; i++ {
		if err := w2.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := captureFiles(t, livePath)
	// The writer is abandoned: the captured files are the crash state.

	path := restoreFiles(t, t.TempDir(), "resumed.tsdb", st)
	w3, err := OpenAppend(path) // truncates the torn tail, replays the open bucket
	if err != nil {
		t.Fatal(err)
	}
	w3.SetBlockPoints(4)
	if lt, ok := w3.LastTime(wmap.Europe); !ok || !lt.Equal(at(5*(committed-1))) {
		t.Fatalf("resume point = %v, %v; want %v", lt, ok, at(5*(committed-1)))
	}
	if got := w3.Stats().RollupBlocks; got == 0 {
		t.Fatal("no rollup block committed before the crash; the test is not exercising the rebuild")
	}
	for i := committed; i < total; i++ {
		if err := w3.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("crash-resumed archive differs from uninterrupted archive: %d vs %d bytes", len(got), len(want))
	}
}

// TestRollupCorruptFallbackServesRaw: a flipped byte inside a committed
// rollup block payload must not change any answer — the handler degrades to
// the raw scan, byte-identical, and counts the fallback.
func TestRollupCorruptFallbackServesRaw(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var maps []*wmap.Map
	for i := 0; i < 200; i++ {
		maps = append(maps, randMap(r, i, false))
	}
	data := buildArchive(t, 64, maps...)
	clean := openArchive(t, data)
	id := LinkKeysOf(maps[0])[0].ID(wmap.Europe)
	u := "/api/v1/links/" + id + "/load?step=1h"

	clean.rollupOff.Store(true)
	code, want := getRaw(t, NewAPIHandler(clean), u)
	if code != http.StatusOK {
		t.Fatalf("raw reference: status %d", code)
	}

	// Flip one payload byte in every rollup block: the footer still parses,
	// the per-block CRC fails at decode time.
	bad := append([]byte(nil), data...)
	rs := clean.st().rollups
	if len(rs) == 0 {
		t.Fatal("fixture archive has no rollup blocks")
	}
	for i := range rs {
		bad[rs[i].offset+4+int64(rs[i].payloadLen)/2] ^= 0xFF
	}
	rd := openArchive(t, bad)
	code, got := getRaw(t, NewAPIHandler(rd), u)
	if code != http.StatusOK {
		t.Fatalf("corrupt-rollup serve: status %d, body %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupt-rollup response differs from raw:\ngot:  %s\nwant: %s", got, want)
	}
	ps := rd.PlannerStats()
	if ps.Fallbacks != 1 || ps.Raw != 1 {
		t.Errorf("planner stats after corrupt fallback = %+v, want 1 fallback + 1 raw", ps)
	}
}

// TestRollupTotalsMatchRaw: the map-wide bucket totals the analysis fold
// consumes agree exactly with a by-hand fold of the raw snapshots, across
// topology-change fragments; incomplete buckets never appear.
func TestRollupTotalsMatchRaw(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 620
	var maps []*wmap.Map
	for i := 0; i < n; i++ {
		maps = append(maps, randMap(r, i, i >= 200 && i < 400))
	}
	rd := openArchive(t, buildArchive(t, 64, maps...))

	bks, err := rd.RollupTotals(context.Background(), wmap.Europe, time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bks) < 48 {
		t.Fatalf("only %d hourly buckets returned for a %d-snapshot archive", len(bks), n)
	}

	type ha struct {
		snaps, samples, sum int64
		min, max            float64
	}
	byHour := map[int64]*ha{}
	for _, m := range maps {
		hb := m.Time.Unix() / 3600 * 3600
		a := byHour[hb]
		if a == nil {
			a = &ha{min: 101}
			byHour[hb] = a
		}
		a.snaps++
		for _, l := range m.Links {
			for _, v := range [2]float64{float64(l.LoadAB), float64(l.LoadBA)} {
				a.samples++
				a.sum += int64(v)
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
		}
	}
	for i, b := range bks {
		if i > 0 && !b.Start.After(bks[i-1].Start) {
			t.Fatalf("bucket starts not ascending at %d: %v after %v", i, b.Start, bks[i-1].Start)
		}
		a := byHour[b.Start.Unix()]
		if a == nil {
			t.Fatalf("bucket at %v has no raw snapshots", b.Start)
		}
		if b.Snapshots != a.snaps || b.Samples != a.samples || b.Sum != float64(a.sum) ||
			b.Min != a.min || b.Max != a.max {
			t.Errorf("bucket %v = %+v, want snaps %d samples %d sum %d min %v max %v",
				b.Start, b, a.snaps, a.samples, a.sum, a.min, a.max)
		}
	}

	if _, err := rd.RollupTotals(context.Background(), wmap.Europe, 30*time.Minute, time.Time{}, time.Time{}); !errors.Is(err, ErrNoRollup) {
		t.Errorf("30m tier err = %v, want ErrNoRollup", err)
	}
	if _, err := rd.RollupTotals(context.Background(), wmap.World, time.Hour, time.Time{}, time.Time{}); !errors.Is(err, ErrUnknownMap) {
		t.Errorf("unarchived map err = %v, want ErrUnknownMap", err)
	}
}

// TestRollupLiveTailServing: a tailing reader over a live (checkpointed)
// archive serves planned queries byte-identically to raw, keeps doing so
// across Refresh as new commits (including a new rollup block) land, and
// the tier horizon keeps the still-filling bucket on the raw path.
func TestRollupLiveTailServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	i := 0
	appendTo := func(n int) {
		t.Helper()
		for ; i < n; i++ {
			if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendTo(230) // one 16-bucket rollup block committed, 3 buckets still unflushed

	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	h := NewAPIHandler(rd)
	key := LinkKeysOf(seqMap(wmap.Europe, 0))[0]
	u := "/api/v1/links/" + key.ID(wmap.Europe) + "/load?step=1h"

	assertPlannedEqualsRaw(t, rd, h, u)
	assertPlannedEqualsRaw(t, rd, h, u+"&bands=1")
	if ps := rd.PlannerStats(); ps.Tiers["1h"] == 0 {
		t.Fatalf("live archive not served from the 1h tier: %+v", ps)
	}

	// Grow the archive past the next 16-bucket flush; the refreshed state
	// must adopt the new rollup block and stay byte-identical to raw.
	appendTo(400)
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("refresh after growth: changed=%v err=%v", changed, err)
	}
	if got := rd.st().rollups; len(got) < 2 {
		t.Fatalf("refreshed state holds %d rollup blocks, want at least 2", len(got))
	}
	assertPlannedEqualsRaw(t, rd, h, u)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
