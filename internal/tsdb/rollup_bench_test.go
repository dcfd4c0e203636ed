package tsdb

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/wmap"
)

// Benchmarks for the rollup tiers and the query planner: the long-range
// resampled query the planner exists for, the map-wide weekly fold the
// analyses run, and (in live_bench_test.go) the appender overhead of
// maintaining the tiers. Run with:
//
//	go test -run xxx -bench BenchmarkRollup -benchmem ./internal/tsdb/
//
// The long-range benchmark asserts the planned and raw responses are
// byte-identical before timing either, so the speedup it reports is for
// the same observable work.

// buildBenchCorpus writes months of 5-minute snapshots (~8640/month) and
// opens a cached reader over the closed archive.
func buildBenchCorpus(b *testing.B, months int) *Reader {
	b.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	n := months * 30 * 24 * 12
	for i := 0; i < n; i++ {
		if err := w.Append(seqMapB(wmap.Europe, i)); err != nil {
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
	rd.SetBlockCache(NewBlockCache(DefaultBlockCacheBytes))
	return rd
}

// BenchmarkRollupLongRange: a 6-month step=1d load query through the API
// handler, served from the 1d tier vs the raw scan of ~52k snapshots.
func BenchmarkRollupLongRange(b *testing.B) {
	rd := buildBenchCorpus(b, 6)
	h := NewAPIHandler(rd)
	url := "/api/v1/links/" + LinkKeysOf(seqMapB(wmap.Europe, 0))[0].ID(wmap.Europe) + "/load?step=24h"

	serve := func() []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	rd.rollupOff.Store(false)
	planned := serve()
	rd.rollupOff.Store(true)
	if raw := serve(); !bytes.Equal(planned, raw) {
		b.Fatal("planned response is not byte-identical to the raw response")
	}

	for _, c := range []struct {
		name    string
		serving bool
	}{{"rollup", true}, {"raw", false}} {
		b.Run(c.name, func(b *testing.B) {
			rd.rollupOff.Store(!c.serving)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
	rd.rollupOff.Store(false)
	if ps := rd.PlannerStats(); ps.Tiers["1d"] == 0 {
		b.Fatalf("benchmark never hit the 1d tier: %+v", ps)
	}
}

// BenchmarkRollupWeeklyFold: the wmanalyze weekly seasonality fold over 6
// months — from the 1h tier via RollupTotals vs streaming every snapshot
// through the cursor the raw analyses use.
func BenchmarkRollupWeeklyFold(b *testing.B) {
	rd := buildBenchCorpus(b, 6)
	ctx := context.Background()

	b.Run("rollup-1h", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bks, err := rd.RollupTotals(ctx, wmap.Europe, time.Hour, time.Time{}, time.Time{})
			if err != nil {
				b.Fatal(err)
			}
			aggs := make([]analysis.HourAgg, len(bks))
			for k, bk := range bks {
				aggs[k] = analysis.HourAgg{Start: bk.Start, Count: bk.Samples, Sum: bk.Sum, Min: bk.Min, Max: bk.Max}
			}
			if _, err := analysis.WeeklyMeans(aggs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-stream", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stream := func(yield func(*wmap.Map) error) error {
				cur := rd.CursorParallel(ctx, wmap.Europe, time.Time{}, time.Time{}, 4)
				defer cur.Close()
				for cur.Next() {
					if err := yield(cur.MapView()); err != nil {
						return err
					}
				}
				return cur.Err()
			}
			if _, err := analysis.WeeklyLoads(stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}
