// Race stress for the concurrent processing layer. This file is the
// repo's -race tier: run with
//
//	go test -race -short ./internal/dataset/
//
// (documented in README.md). The tests are small enough to stay in short
// mode; their value is the interleavings the race detector explores, not
// the input volume.
package dataset

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/wmap"
)

// TestRaceProcessMapWithConcurrentReaders hammers ProcessMapParallel with
// two simultaneous runs over the same store (concurrent writers of the same
// snapshots — the last-writer-wins invariant) while reader goroutines walk
// the index, summarize, and load snapshots mid-write.
func TestRaceProcessMapWithConcurrentReaders(t *testing.T) {
	s, want := seedMixedStore(t)
	ctx := context.Background()
	stop := make(chan struct{})

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				entries, err := s.Index(wmap.AsiaPacific, ExtYAML)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					// Mid-write loads must see complete files or nothing:
					// a decode error here would be a torn write.
					if _, err := s.LoadMap(wmap.AsiaPacific, e.Time); err != nil {
						t.Errorf("torn read at %s: %v", e.Time, err)
						return
					}
				}
				if _, err := s.Summarize(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	reports := make([]ProcessReport, 2)
	for i := range reports {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			rep, err := s.ProcessMapParallel(ctx, wmap.AsiaPacific, ProcessOptions{
				Workers: 8,
				Extract: extract.DefaultOptions(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for i, rep := range reports {
		// Concurrent runs may each see the other's YAMLs as already
		// processed; the failure classes must still agree exactly.
		if rep.Processed != want.Processed || rep.Failed() != want.Failed() ||
			rep.ScanFail != want.ScanFail || rep.AttrFail != want.AttrFail ||
			rep.XMLFail != want.XMLFail || rep.WriteFail != want.WriteFail {
			t.Errorf("run %d report = %+v, want counts of %+v", i, rep, want)
		}
	}
}

// TestRaceWalkMapsParallelSharedStore runs several parallel walks of the
// same store at once, each checking chronological delivery, while another
// goroutine keeps rewriting one snapshot (atomic replace under readers).
func TestRaceWalkMapsParallelSharedStore(t *testing.T) {
	s := tempStore(t)
	times := writeSyntheticYAMLs(t, s, wmap.Europe, 60)

	stop := make(chan struct{})
	var rewriter sync.WaitGroup
	rewriter.Add(1)
	go func() {
		defer rewriter.Done()
		m := &wmap.Map{
			ID:    wmap.Europe,
			Time:  times[30],
			Nodes: []wmap.Node{{Name: "a-r", Kind: wmap.Router}, {Name: "b-r", Kind: wmap.Router}},
			Links: []wmap.Link{{A: "a-r", B: "b-r", LabelA: "#1", LabelB: "#1"}},
		}
		data, err := extract.MarshalYAML(m)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.WriteSnapshot(wmap.Europe, times[30], ExtYAML, data); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var walks sync.WaitGroup
	for w := 0; w < 3; w++ {
		walks.Add(1)
		go func() {
			defer walks.Done()
			i := 0
			err := s.WalkMapsParallel(context.Background(), wmap.Europe, 8, func(m *wmap.Map) error {
				if !m.Time.Equal(times[i]) {
					t.Errorf("position %d: got %s, want %s", i, m.Time, times[i])
				}
				i++
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if i != len(times) {
				t.Errorf("walked %d, want %d", i, len(times))
			}
		}()
	}
	walks.Wait()
	close(stop)
	rewriter.Wait()
}

// TestIndexSkipsVanishingTempFiles: WriteSnapshot's temporary files appear
// and vanish in snapshot directories while Index lists them. Index must
// neither fail on a name that is gone by the time it looks, nor count one.
func TestIndexSkipsVanishingTempFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	const snapshots = 4
	for i := 0; i < snapshots; i++ {
		if err := s.WriteSnapshot(wmap.Europe, at.Add(time.Duration(i)*5*time.Minute), ExtYAML, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Dir(s.SnapshotPath(wmap.Europe, at, ExtYAML))

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, err := os.CreateTemp(dir, ".tmp-*")
			if err != nil {
				t.Error(err)
				return
			}
			f.Close()
			os.Remove(f.Name())
		}
	}()
	defer func() {
		close(stop)
		churn.Wait()
	}()

	for i := 0; i < 2000; i++ {
		entries, err := s.Index(wmap.Europe, ExtYAML)
		if err != nil {
			t.Fatalf("Index #%d: %v", i, err)
		}
		if len(entries) != snapshots {
			t.Fatalf("Index #%d: %d entries, want %d", i, len(entries), snapshots)
		}
	}
}
