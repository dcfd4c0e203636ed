// Benchmarks for the columnar tsdb archive against the YAML corpus it
// replaces: full-corpus fold speed, indexed range-query latency, and the
// on-disk size ratio. Run with:
//
//	go test -run xxx -bench 'BenchmarkFoldCorpus|BenchmarkArchive' -benchmem .
package main

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// archiveFixture is a 7-day, 5-minute Europe corpus (2017 snapshots)
// materialized both ways: as the on-disk YAML store the analyses walked
// before this archive existed, and as one tsdb archive held in memory.
type archiveFixture struct {
	store     *dataset.Store
	dir       string
	archive   []byte
	rd        *tsdb.Reader
	from, to  time.Time
	snapshots int
	yamlBytes int64
}

var (
	archOnce sync.Once
	arch     archiveFixture
)

func getArchiveFixture(b *testing.B) *archiveFixture {
	b.Helper()
	archOnce.Do(func() {
		sc := netsim.DefaultScenario()
		sim, err := netsim.New(sc)
		if err != nil {
			panic(err)
		}
		// The benchmark binary leaves the corpus in the OS temp dir; it is
		// rebuilt per run and small (a few thousand YAML files).
		arch.dir, err = os.MkdirTemp("", "wmbench-corpus-")
		if err != nil {
			panic(err)
		}
		arch.store, err = dataset.Open(arch.dir)
		if err != nil {
			panic(err)
		}
		arch.from = sc.Start.AddDate(0, 2, 0)
		arch.to = arch.from.AddDate(0, 0, 7)
		var buf bytes.Buffer
		w := tsdb.NewWriter(&buf)
		for at := arch.from; !at.After(arch.to); at = at.Add(5 * time.Minute) {
			m, err := sim.MapAt(wmap.Europe, at)
			if err != nil {
				panic(err)
			}
			out, err := extract.MarshalYAML(m)
			if err != nil {
				panic(err)
			}
			if err := arch.store.WriteSnapshot(wmap.Europe, at, dataset.ExtYAML, out); err != nil {
				panic(err)
			}
			arch.yamlBytes += int64(len(out))
			if err := w.Append(m); err != nil {
				panic(err)
			}
			arch.snapshots++
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		arch.archive = buf.Bytes()
		arch.rd, err = tsdb.NewReader(bytes.NewReader(arch.archive), int64(len(arch.archive)))
		if err != nil {
			panic(err)
		}
	})
	return &arch
}

// foldLoads is the measured work: visit every snapshot in order and sum the
// per-direction loads — the access pattern of every Figure 4-6 analysis.
func foldLoads(m *wmap.Map, sum *int64, n *int64) {
	for _, l := range m.Links {
		*sum += int64(l.LoadAB) + int64(l.LoadBA)
	}
	*n++
}

// BenchmarkFoldCorpus folds the 7-day corpus once per iteration, comparing
// the parallel YAML walk against a one-worker archive cursor.
func BenchmarkFoldCorpus(b *testing.B) {
	f := getArchiveFixture(b)
	b.Logf("corpus: %d snapshots; YAML %d bytes in %d files, archive %d bytes (%.1fx smaller)",
		f.snapshots, f.yamlBytes, f.snapshots, len(f.archive),
		float64(f.yamlBytes)/float64(len(f.archive)))

	b.Run("yaml-walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum, n int64
			err := f.store.WalkMapsParallel(context.Background(), wmap.Europe, 0, func(m *wmap.Map) error {
				foldLoads(m, &sum, &n)
				return nil
			})
			if err != nil || n != int64(f.snapshots) {
				b.Fatalf("walk: %d snapshots, err %v", n, err)
			}
		}
	})
	b.Run("tsdb-cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum, n int64
			cur := f.rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
			for cur.Next() {
				foldLoads(cur.MapView().Clone(), &sum, &n)
			}
			if err := cur.Err(); err != nil || n != int64(f.snapshots) {
				b.Fatalf("cursor: %d snapshots, err %v", n, err)
			}
		}
	})
	// The PR 4 fold path: parallel read-ahead decode over the decoded-block
	// cache, folding through the allocation-free scratch view. The first
	// iteration decodes and fills the cache; steady state (a dashboard
	// re-folding hot history) never decodes and never clones.
	b.Run("tsdb-parallel", func(b *testing.B) {
		rd, err := tsdb.NewReader(bytes.NewReader(f.archive), int64(len(f.archive)))
		if err != nil {
			b.Fatal(err)
		}
		rd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var sum, n int64
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, runtime.GOMAXPROCS(0))
			for cur.Next() {
				foldLoads(cur.MapView(), &sum, &n)
			}
			cur.Close()
			if err := cur.Err(); err != nil || n != int64(f.snapshots) {
				b.Fatalf("parallel cursor: %d snapshots, err %v", n, err)
			}
		}
	})
}

// BenchmarkArchiveRangeQuery measures the indexed seek the footer exists
// for: extract one hour (12 snapshots) out of the 7-day archive, rotating
// the window so successive iterations hit different blocks.
func BenchmarkArchiveRangeQuery(b *testing.B) {
	f := getArchiveFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := f.from.Add(time.Duration(i%160) * time.Hour)
		var n int
		cur := f.rd.CursorParallel(context.Background(), wmap.Europe, from, from.Add(55*time.Minute), 1)
		for cur.Next() {
			n++
		}
		if err := cur.Err(); err != nil || n != 12 {
			b.Fatalf("window at %s: %d snapshots, err %v", from, n, err)
		}
	}
}

// BenchmarkArchiveLinkSeries measures a single-link, full-range raw load
// query through LinkColumnsContext — the column scan behind the unstepped
// /api/v1/links/{id}/load path, which decodes two columns per block and
// skips the rest.
func BenchmarkArchiveLinkSeries(b *testing.B) {
	f := getArchiveFixture(b)
	m, err := f.rd.SnapshotAt(wmap.Europe, f.to)
	if err != nil {
		b.Fatal(err)
	}
	key := tsdb.LinkKeysOf(m)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var nab, nba int
		err := f.rd.LinkColumnsContext(context.Background(), wmap.Europe, key, time.Time{}, time.Time{}, func(_ []int64, ab, ba []wmap.Load) error {
			nab += len(ab)
			nba += len(ba)
			return nil
		})
		if err != nil || nab == 0 || nba == 0 {
			b.Fatalf("series lengths %d, %d, err %v", nab, nba, err)
		}
	}
}

// BenchmarkArchiveAppend measures the write path: one snapshot appended to
// an in-memory archive, amortized over a full 512-point block cycle.
func BenchmarkArchiveAppend(b *testing.B) {
	f := getArchiveFixture(b)
	var maps []*wmap.Map
	cur := f.rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
	for cur.Next() {
		maps = append(maps, cur.MapView().Clone())
	}
	if err := cur.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := tsdb.NewWriter(&buf)
		for _, m := range maps {
			if err := w.Append(m); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(maps)), "snapshots/op")
}
