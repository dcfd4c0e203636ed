package tsdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// Benchmarks for the grid engine: the full-map month query served by the
// single-pass scan vs the per-link request loop it replaces, hot (decoded
// blocks cached) and cold (fresh cache per query). Run with:
//
//	go test -run xxx -bench BenchmarkGrid -benchmem ./internal/tsdb/

// gridBenchLinks is the bench topology's link count: a 48-router ring with
// four parallels per adjacent pair, the scale of a real backbone map.
const gridBenchLinks = 192

// buildGridCorpus writes n 5-minute snapshots of the 192-link ring in
// blocks of blockPoints snapshots (0: the writer's default).
func buildGridCorpus(b *testing.B, n, blockPoints int) *Reader {
	b.Helper()
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("r%02d-g1", i)
	}
	nodes := make([]wmap.Node, len(names))
	for i, nm := range names {
		nodes[i] = wmap.Node{Name: nm, Kind: wmap.Router}
	}
	labels := []string{"#1", "#2", "#3", "#4"}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if blockPoints > 0 {
		w.SetBlockPoints(blockPoints)
	}
	for i := 0; i < n; i++ {
		m := &wmap.Map{ID: wmap.Europe, Time: at(5 * i), Nodes: nodes}
		li := 0
		for p := 0; p < 48; p++ {
			a, c := names[p], names[(p+1)%48]
			for _, lb := range labels {
				m.Links = append(m.Links, wmap.Link{
					A: a, B: c, LabelA: lb, LabelB: lb,
					LoadAB: wmap.Load((i*7 + li*13) % 101),
					LoadBA: wmap.Load((i*11 + li*17) % 101),
				})
				li++
			}
		}
		if err := w.Append(m); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	return rd
}

// gridMonth is one month of 5-minute snapshots; gridDay one day.
const (
	gridMonth = 30 * 24 * 12
	gridDay   = 24 * 12
)

// gridMatchesPerLink serves the whole-map grid for query and each of its
// links' per-link bodies for the same query, fails unless every series is
// byte-identical, and returns the per-link URLs and the emitted row count.
func gridMatchesPerLink(b *testing.B, h http.Handler, query string) (perURLs []string, rows float64) {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/grid?map=europe&"+query, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("grid: status %d: %.200s", rec.Code, rec.Body)
	}
	var grid struct {
		Links []map[string]json.RawMessage `json:"links"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &grid); err != nil {
		b.Fatal(err)
	}
	if len(grid.Links) != gridBenchLinks {
		b.Fatalf("grid universe = %d links, want %d", len(grid.Links), gridBenchLinks)
	}
	perURLs = make([]string, len(grid.Links))
	for i, row := range grid.Links {
		var id string
		if err := json.Unmarshal(row["id"], &id); err != nil {
			b.Fatal(err)
		}
		perURLs[i] = "/api/v1/links/" + id + "/load?" + query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, perURLs[i], nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("per-link %s: status %d", id, rec.Code)
		}
		var per map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &per); err != nil {
			b.Fatal(err)
		}
		for _, s := range []string{"ab", "ba"} {
			if string(row[s]) != string(per[s]) {
				b.Fatalf("link %s series %q: grid and per-link outputs differ", id, s)
			}
			var pts []json.RawMessage
			json.Unmarshal(row[s], &pts)
			rows += float64(len(pts))
		}
	}
	return perURLs, rows
}

// BenchmarkGrid compares the whole-map month query at step=1h: one grid
// request vs 192 per-link requests producing the same series bytes (the
// equality is asserted before timing). rows/op lets benchmem's allocs/op be
// read as allocations per emitted row. tail-hot is the live shape: a day
// written one snapshot per block, as a polling writer leaves it, queried
// at step=1h from an off-the-hour from.
func BenchmarkGrid(b *testing.B) {
	rd := buildGridCorpus(b, gridMonth, 0)
	rd.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
	h := NewAPIHandler(rd)
	const query = "step=1h"
	gridURL := "/api/v1/grid?map=europe&" + query
	perURLs, rows := gridMatchesPerLink(b, h, query)

	tail := buildGridCorpus(b, gridDay, 1)
	tail.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
	tailH := NewAPIHandler(tail)
	tailQuery := "step=1h&from=" + at(35).Format(time.RFC3339)
	tailURL := "/api/v1/grid?map=europe&" + tailQuery
	_, tailRows := gridMatchesPerLink(b, tailH, tailQuery)

	// The timed loops write to a discarding ResponseWriter: a recorder's
	// bytes.Buffer doubles its way to the 18 MB grid body and the copies
	// would tax the measurement, where a real server hands bytes to a
	// socket. The recorders above already asserted the bodies are right.
	serveOn := func(h http.Handler, url string) {
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	serve := func(url string) { serveOn(h, url) }

	b.Run("grid-hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(gridURL)
		}
		b.ReportMetric(rows, "rows/op")
	})
	b.Run("perlink-hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range perURLs {
				serve(u)
			}
		}
		b.ReportMetric(rows, "rows/op")
	})
	b.Run("grid-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
			serve(gridURL)
		}
		b.ReportMetric(rows, "rows/op")
	})
	b.Run("perlink-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
			for _, u := range perURLs {
				serve(u)
			}
		}
		b.ReportMetric(rows, "rows/op")
	})
	b.Run("tail-hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOn(tailH, tailURL)
		}
		b.ReportMetric(tailRows, "rows/op")
	})
}

// discardResponseWriter records the status code and drops the body.
type discardResponseWriter struct {
	h    http.Header
	code int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkGridColumns measures the raw columnar fold wmanalyze's figures
// ride: one pass over the month with every column decoded once.
func BenchmarkGridColumns(b *testing.B) {
	rd := buildGridCorpus(b, gridMonth, 0)
	rd.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cells int64
		err := rd.GridColumns(ctx, wmap.Europe, time.Time{}, time.Time{}, func(c *GridChunk) error {
			cells += int64(len(c.Times)) * int64(len(c.Keys))
			return nil
		})
		if err != nil || cells == 0 {
			b.Fatalf("cells=%d err=%v", cells, err)
		}
	}
}
