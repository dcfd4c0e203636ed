package tsdb

import (
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// Benchmarks for the live-append path: appender throughput at the two
// Sync cadences the tools use (wmparse -follow Syncs per poll cycle, here
// every 64 snapshots; wmcollect per snapshot — a head frame each, blocks
// sealing at 64 points either way), and the tailing reader's Refresh cost
// when nothing changed (every idle poll), when it adopts a head frame, and
// when it adopts a sealed block. Run with:
//
//	go test -run xxx -bench BenchmarkLiveAppend -benchmem ./internal/tsdb/
//	go test -run xxx -bench BenchmarkRefresh -benchtime 500x -benchmem ./internal/tsdb/
func BenchmarkLiveAppend(b *testing.B) {
	for _, c := range []struct {
		name      string
		every     int
		noRollups bool
	}{
		{"commit-per-block", 64, false},
		{"commit-per-block-no-rollup", 64, true}, // isolates the rollup maintenance overhead
		{"commit-per-snapshot", 1, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.tsdb")
			w, err := OpenAppend(path)
			if err != nil {
				b.Fatal(err)
			}
			w.SetBlockPoints(64)
			if c.noRollups {
				if err := w.SetRollupResolutions(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(seqMapB(wmap.Europe, i)); err != nil {
					b.Fatal(err)
				}
				if (i+1)%c.every == 0 {
					if err := w.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// seqMapB is seqMap without the testing.T plumbing, usable from benchmarks.
func seqMapB(id wmap.MapID, i int) *wmap.Map {
	return testMap(id, time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i)*5*time.Minute),
		i%101, (2*i)%101, (3*i)%101, (5*i)%101, (7*i)%101, (11*i)%101)
}

func BenchmarkRefresh(b *testing.B) {
	// noop: the steady-state cost of a poll that finds no new commit —
	// the head's header and the checkpoint's, plus a fingerprint compare.
	b.Run("noop", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.tsdb")
		w, err := OpenAppend(path)
		if err != nil {
			b.Fatal(err)
		}
		w.SetBlockPoints(16)
		for i := 0; i < 512; i++ {
			if err := w.Append(seqMapB(wmap.Europe, i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		rd, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			changed, err := rd.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if changed {
				b.Fatal("refresh adopted a commit that never happened")
			}
		}
	})

	// adopt-head: the cost of adopting one Sync's head frame — the steady
	// poll of a live archive: read the frame past the last offset, compare
	// the checkpoint header, publish the new state. The append+Sync
	// feeding each iteration is untimed.
	b.Run("adopt-head", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.tsdb")
		w, err := OpenAppend(path)
		if err != nil {
			b.Fatal(err)
		}
		w.SetBlockPoints(1 << 20) // nothing seals: every Sync is a head frame
		if err := w.Append(seqMapB(wmap.Europe, 0)); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		rd, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := w.Append(seqMapB(wmap.Europe, i+1)); err != nil {
				b.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			changed, err := rd.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if !changed {
				b.Fatal("refresh missed a head frame")
			}
		}
	})

	// adopt: the cost of adopting a freshly sealed block — reread the
	// checkpoint, reparse the footer, validate the extension, publish the
	// new state. The append+Sync feeding each iteration is untimed.
	b.Run("adopt", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.tsdb")
		w, err := OpenAppend(path)
		if err != nil {
			b.Fatal(err)
		}
		w.SetBlockPoints(1) // every snapshot is a full block: every Append seals and commits
		if err := w.Append(seqMapB(wmap.Europe, 0)); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		rd, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := w.Append(seqMapB(wmap.Europe, i+1)); err != nil {
				b.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			changed, err := rd.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if !changed {
				b.Fatal("refresh missed a commit")
			}
		}
	})
}
