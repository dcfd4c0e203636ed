package tsdb

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// TestLiveTailRace is the concurrency proof for the live-tailing archive:
// one appender committing every few snapshots while a refresher rolls a
// shared Reader forward and tailing readers scan continuously. Run under
// -race it demonstrates the synchronization story (atomic state pointer +
// immutable committed prefix); the assertions demonstrate the semantics:
//
//   - every link series a reader observes is a consistent committed prefix
//     of the final series, with every value the deterministic function of
//     its timestamp that the appender wrote (no torn or interleaved reads);
//   - the prefix a single reader observes never shrinks across refreshes;
//   - a cursor opened mid-append yields exactly its open-time snapshot
//     count even as refreshes land underneath it.
//
// Sized to stay fast on one CPU so it lives in the -short race tier.
func TestLiveTailRace(t *testing.T) {
	const (
		total   = 120 // snapshots appended
		perSync = 5   // appends per durable commit
		readers = 3
	)
	path := filepath.Join(t.TempDir(), "race.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	// Commit an initial prefix so readers have a live archive to open.
	for i := 0; i < perSync; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	key := LinkKey{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1"}
	// seqMap gives links[0] LoadAB = i%101, LoadBA = (2*i)%101 for the
	// snapshot at at(5*i): every observed point is checkable from its
	// timestamp alone.
	checkSeries := func(who string) (int, error) {
		ab, ba, err := linkSeries(context.Background(), rd, wmap.Europe, key, time.Time{}, time.Time{})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", who, err)
		}
		abPts, baPts := ab.Points(), ba.Points()
		if len(abPts) != len(baPts) {
			return 0, fmt.Errorf("%s: ab/ba lengths differ: %d vs %d", who, len(abPts), len(baPts))
		}
		for k, p := range abPts {
			i := k // chronological scan from the start: point k is snapshot k
			if !p.T.Equal(at(5 * i)) {
				return 0, fmt.Errorf("%s: point %d at %v, want %v", who, k, p.T, at(5*i))
			}
			if want := float64(i % 101); p.V != want {
				return 0, fmt.Errorf("%s: ab[%d] = %v, want %v", who, k, p.V, want)
			}
			if want := float64((2 * i) % 101); baPts[k].V != want {
				return 0, fmt.Errorf("%s: ba[%d] = %v, want %v", who, k, baPts[k].V, want)
			}
		}
		return len(abPts), nil
	}

	var (
		appendDone = make(chan struct{})
		stopTail   = make(chan struct{})
		wg         sync.WaitGroup
		failMu     sync.Mutex
		failures   []string
		refreshes  atomic.Int64
	)
	fail := func(err error) {
		failMu.Lock()
		failures = append(failures, err.Error())
		failMu.Unlock()
	}
	failed := func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		return len(failures) > 0
	}

	// Appender: the single writer, committing every perSync snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appendDone)
		for i := perSync; i < total; i++ {
			if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
				fail(fmt.Errorf("append %d: %w", i, err))
				return
			}
			if (i+1)%perSync == 0 {
				if err := w.Sync(); err != nil {
					fail(fmt.Errorf("sync at %d: %w", i, err))
					return
				}
			}
		}
		if err := w.Sync(); err != nil {
			fail(fmt.Errorf("final sync: %w", err))
		}
	}()

	// Refresher: rolls the shared reader forward until the appender is
	// done AND the final commit has been adopted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			changed, err := rd.Refresh()
			if err != nil {
				fail(fmt.Errorf("refresh: %w", err))
				return
			}
			if changed {
				refreshes.Add(1)
			}
			select {
			case <-appendDone:
				if rd.Snapshots(wmap.Europe) == total {
					return
				}
			default:
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Tailing readers: full-series scans through whatever state the
	// refresher has published, checking consistency and monotonic growth.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := fmt.Sprintf("reader%d", g)
			prev := 0
			for {
				n, err := checkSeries(who)
				if err != nil {
					fail(err)
					return
				}
				if n < prev {
					fail(fmt.Errorf("%s: series shrank from %d to %d points", who, prev, n))
					return
				}
				prev = n
				select {
				case <-stopTail:
					return
				default:
				}
			}
		}(g)
	}

	// Cursor spanning refreshes: open mid-append, drain slowly, and the
	// pinned state must keep serving its open-time prefix regardless of
	// how many commits land meanwhile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			pinned := rd.Snapshots(wmap.Europe)
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
			n := 0
			for cur.Next() {
				m := cur.Map()
				i := int(m.Time.Sub(base) / (5 * time.Minute))
				if got, want := int(m.Links[0].LoadAB), i%101; got != want {
					fail(fmt.Errorf("cursor round %d: snapshot %d LoadAB = %d, want %d", round, i, got, want))
					cur.Close()
					return
				}
				n++
				time.Sleep(50 * time.Microsecond) // let refreshes land mid-scan
			}
			if err := cur.Err(); err != nil {
				fail(fmt.Errorf("cursor round %d: %w", round, err))
				return
			}
			cur.Close()
			if n != pinned {
				fail(fmt.Errorf("cursor round %d: yielded %d snapshots, open-time state had %d", round, n, pinned))
				return
			}
			select {
			case <-stopTail:
				return
			default:
			}
		}
	}()

	<-appendDone
	// Give the refresher a moment to adopt the final commit, then release
	// the tailers; each finishes its in-flight scan first.
	for rd.Snapshots(wmap.Europe) != total && !failed() {
		time.Sleep(time.Millisecond)
	}
	close(stopTail)
	wg.Wait()

	failMu.Lock()
	defer failMu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		return
	}
	if n := rd.Snapshots(wmap.Europe); n != total {
		t.Fatalf("final reader state has %d snapshots, want %d", n, total)
	}
	if n, err := checkSeries("final"); err != nil || n != total {
		t.Fatalf("final series: n=%d err=%v, want %d", n, err, total)
	}
	t.Logf("reader adopted %d refreshes while tailing", refreshes.Load())

	// Closing the writer commits the tail and strips the checkpoint; the
	// reader's last refresh of a now-closed archive must still succeed and
	// agree with the live view.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Refresh(); err != nil {
		t.Fatalf("refresh after writer close: %v", err)
	}
	if n, err := checkSeries("after-close"); err != nil || n != total {
		t.Fatalf("after-close series: n=%d err=%v, want %d", n, err, total)
	}
}
