package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// fixtureBytes holds one rendered snapshot per failure class, built once:
// the seeding itself is cheap, so every subtest can populate a fresh store
// with identical content.
type fixtureBytes struct {
	healthy   []byte // processes cleanly
	malformed []byte // malformed attribute value -> ScanFail
	noRouters []byte // no link/router intersections -> AttrFail
	truncated []byte // document cut mid-element -> XMLFail
}

var (
	fixtureOnce sync.Once
	fixture     fixtureBytes
)

func fixtureSVGs(t *testing.T) *fixtureBytes {
	t.Helper()
	fixtureOnce.Do(func() {
		sc := netsim.DefaultScenario()
		sim, err := netsim.New(sc)
		if err != nil {
			panic(err)
		}
		m, err := sim.MapAt(wmap.AsiaPacific, sc.Start)
		if err != nil {
			panic(err)
		}
		cache := render.NewSceneCache(render.Options{})
		var buf bytes.Buffer
		if err := cache.WriteSVGCached(&buf, m); err != nil {
			panic(err)
		}
		fixture.healthy = append([]byte(nil), buf.Bytes()...)
		scn, err := cache.Scene(m)
		if err != nil {
			panic(err)
		}
		for _, f := range []struct {
			kind render.FaultKind
			dst  *[]byte
		}{
			{render.FaultMalformedAttribute, &fixture.malformed},
			{render.FaultMissingRouters, &fixture.noRouters},
			{render.FaultTruncated, &fixture.truncated},
		} {
			var b bytes.Buffer
			if err := render.WriteFaultySVG(&b, scn, m, f.kind); err != nil {
				panic(err)
			}
			*f.dst = append([]byte(nil), b.Bytes()...)
		}
	})
	return &fixture
}

// seedMixedStore populates a fresh store with three healthy snapshots and
// one of each deliberately malformed class, plus a non-weathermap SVG and a
// non-XML payload, and returns the expected report.
func seedMixedStore(t *testing.T) (*Store, ProcessReport) {
	t.Helper()
	fx := fixtureSVGs(t)
	s := tempStore(t)
	write := func(min int, data []byte) {
		t.Helper()
		if err := s.WriteSnapshot(wmap.AsiaPacific, ts(min), ExtSVG, data); err != nil {
			t.Fatal(err)
		}
	}
	write(0, fx.healthy)
	write(5, fx.healthy)
	write(10, fx.healthy)
	write(15, fx.malformed)
	write(20, fx.noRouters)
	write(25, fx.truncated)
	write(30, []byte(`<svg xmlns="http://www.w3.org/2000/svg"><rect x="1" y="1" width="2" height="2"/></svg>`))
	write(35, []byte("%PDF-1.4 this is not XML at all"))
	return s, ProcessReport{
		Map:       wmap.AsiaPacific,
		Processed: 3,
		ScanFail:  2, // malformed attribute + not-a-weathermap
		AttrFail:  1,
		XMLFail:   2, // truncated + non-XML payload
	}
}

// sameClasses compares the deterministic failure-class counters of two
// reports. The cache hit/miss split is excluded: it depends on how the
// scheduler distributes same-topology snapshots across workers.
func sameClasses(rep, want ProcessReport) bool {
	return rep.Map == want.Map && rep.Processed == want.Processed &&
		rep.ScanFail == want.ScanFail && rep.AttrFail == want.AttrFail &&
		rep.XMLFail == want.XMLFail && rep.WriteFail == want.WriteFail &&
		rep.OtherFail == want.OtherFail
}

// TestProcessReportAggregationAcrossWorkers proves the tentpole's
// determinism claim: on the same mixed fixture, every worker count produces
// the identical per-class accounting. The cache counters are only
// deterministic in sum — hits and misses partition the snapshots that
// reached attribution, however the scheduler spread them.
func TestProcessReportAggregationAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, want := seedMixedStore(t)
			rep, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
				Workers: workers,
				Extract: extract.DefaultOptions(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameClasses(rep, want) {
				t.Errorf("report = %+v, want %+v", rep, want)
			}
			if attributed := want.Processed + want.AttrFail; rep.CacheHits+rep.CacheMisses != attributed {
				t.Errorf("cache hits %d + misses %d != %d attributed snapshots",
					rep.CacheHits, rep.CacheMisses, attributed)
			}
			if workers == 1 {
				// A single worker sees the timeline in order: the three
				// healthy snapshots share a topology, so after the first
				// miss the other two must hit.
				if rep.CacheHits != 2 {
					t.Errorf("workers=1 cache hits = %d, want 2", rep.CacheHits)
				}
			}
		})
	}
}

// TestProcessMapParallelProgressMonotonic checks the documented Progress
// contract: a leading (0, total) call, then a strictly increasing done
// count up to total, under heavy worker concurrency.
func TestProcessMapParallelProgressMonotonic(t *testing.T) {
	s, want := seedMixedStore(t)
	var calls []int
	var mu sync.Mutex
	rep, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 8,
		Extract: extract.DefaultOptions(),
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != want.Total() {
				t.Errorf("progress total = %d, want %d", total, want.Total())
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != rep.Total()+1 {
		t.Fatalf("progress calls = %v", calls)
	}
	for i, done := range calls {
		if done != i {
			t.Fatalf("progress sequence not monotonic: %v", calls)
		}
	}
}

// TestClassifyErrorTaxonomy pins each error type to its counter, in
// particular that genuine XML-reader failures are no longer lumped into
// ScanFail.
func TestClassifyErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want outcome
	}{
		{"scan", &extract.ScanError{Reason: "third arrow"}, outScanFail},
		{"attribute", &extract.AttributeError{LinkIndex: 3, Reason: "no intersection"}, outAttrFail},
		{"not-weathermap", extract.ErrNotWeathermap, outScanFail},
		{"wrapped-not-weathermap", fmt.Errorf("ctx: %w", extract.ErrNotWeathermap), outScanFail},
		{"malformed-attribute", &svg.ValueError{Attr: "width", Value: "bogus"}, outScanFail},
		{"xml-reader", &svg.ReadError{Err: errors.New("unexpected EOF")}, outXMLFail},
		{"wrapped-xml-reader", fmt.Errorf("ctx: %w", &svg.ReadError{Err: errors.New("eof")}), outXMLFail},
		{"other", errors.New("disk on fire"), outOtherFail},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := classify(c.err); got != c.want {
				t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
			}
		})
	}
	// Every outcome must land in exactly one counter, and Total must see it.
	for o := outProcessed; o <= outOtherFail; o++ {
		var rep ProcessReport
		o.count(&rep)
		if rep.Total() != 1 {
			t.Errorf("outcome %d not reflected in Total: %+v", o, rep)
		}
	}
}

// writeSyntheticYAMLs stores n minimal processed snapshots with strictly
// increasing timestamps and returns the timestamps.
func writeSyntheticYAMLs(t *testing.T, s *Store, id wmap.MapID, n int) []time.Time {
	t.Helper()
	times := make([]time.Time, 0, n)
	for i := 0; i < n; i++ {
		at := ts(i * 5)
		m := &wmap.Map{
			ID:    id,
			Time:  at,
			Nodes: []wmap.Node{{Name: "a-r", Kind: wmap.Router}, {Name: "b-r", Kind: wmap.Router}},
			Links: []wmap.Link{{A: "a-r", B: "b-r", LabelA: "#1", LabelB: "#1", LoadAB: wmap.Load(i % 101)}},
		}
		data, err := extract.MarshalYAML(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(id, at, ExtYAML, data); err != nil {
			t.Fatal(err)
		}
		times = append(times, at)
	}
	return times
}

// TestWalkMapsParallelChronologicalOrder is the ordering proof: 200
// snapshots with strictly increasing timestamps, decoded by 8 workers, must
// reach the fold function in exact chronological order.
func TestWalkMapsParallelChronologicalOrder(t *testing.T) {
	s := tempStore(t)
	times := writeSyntheticYAMLs(t, s, wmap.Europe, 200)
	var seen []time.Time
	err := s.WalkMapsParallel(context.Background(), wmap.Europe, 8, func(m *wmap.Map) error {
		seen = append(seen, m.Time)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(times) {
		t.Fatalf("walked %d snapshots, want %d", len(seen), len(times))
	}
	for i := range seen {
		if !seen[i].Equal(times[i]) {
			t.Fatalf("position %d: got %s, want %s", i, seen[i], times[i])
		}
	}
}

// referenceWalk is the sequential contract the parallel walk is held to:
// Index, then LoadMap every entry in order on the calling goroutine.
func referenceWalk(t *testing.T, s *Store, id wmap.MapID) []*wmap.Map {
	t.Helper()
	entries, err := s.Index(id, ExtYAML)
	if err != nil {
		t.Fatal(err)
	}
	var out []*wmap.Map
	for _, e := range entries {
		m, err := s.LoadMap(id, e.Time)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestWalkMapsParallelMatchesSequential cross-checks the parallel walk
// against the sequential reference on the same store: same snapshots, same
// order.
func TestWalkMapsParallelMatchesSequential(t *testing.T) {
	s := tempStore(t)
	writeSyntheticYAMLs(t, s, wmap.World, 40)
	var seq, par []time.Time
	for _, m := range referenceWalk(t, s, wmap.World) {
		seq = append(seq, m.Time)
	}
	if err := s.WalkMapsParallel(context.Background(), wmap.World, 8, func(m *wmap.Map) error {
		par = append(par, m.Time)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d vs parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if !seq[i].Equal(par[i]) {
			t.Fatalf("position %d: sequential %s vs parallel %s", i, seq[i], par[i])
		}
	}
}

// TestWalkMapsParallelStopsOnCallbackError mirrors the sequential contract:
// a fold error aborts the walk, drains the workers, and is returned
// verbatim.
func TestWalkMapsParallelStopsOnCallbackError(t *testing.T) {
	s := tempStore(t)
	writeSyntheticYAMLs(t, s, wmap.World, 30)
	sentinel := os.ErrClosed
	var seen int
	err := s.WalkMapsParallel(context.Background(), wmap.World, 8, func(*wmap.Map) error {
		seen++
		if seen == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || seen != 2 {
		t.Errorf("err = %v, seen = %d", err, seen)
	}
}

// TestWalkMapsParallelCorruptYAML checks that a decode failure aborts the
// parallel walk with a dataset-prefixed error naming the snapshot.
func TestWalkMapsParallelCorruptYAML(t *testing.T) {
	s := tempStore(t)
	writeSyntheticYAMLs(t, s, wmap.World, 10)
	if err := s.WriteSnapshot(wmap.World, ts(3*5), ExtYAML, []byte("not: [valid")); err != nil {
		t.Fatal(err)
	}
	err := s.WalkMapsParallel(context.Background(), wmap.World, 4, func(*wmap.Map) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "dataset:") {
		t.Errorf("corrupt YAML should abort the parallel walk, got %v", err)
	}
}

// TestWalkMapsParallelCancellation cancels mid-walk and expects ctx.Err().
func TestWalkMapsParallelCancellation(t *testing.T) {
	s := tempStore(t)
	writeSyntheticYAMLs(t, s, wmap.Europe, 100)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	err := s.WalkMapsParallel(ctx, wmap.Europe, 8, func(*wmap.Map) error {
		seen++
		if seen == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if seen >= 100 {
		t.Errorf("cancellation did not stop the walk (saw %d)", seen)
	}
}

// TestProcessMapParallelCancellation is the satellite's abort contract: a
// context cancelled mid-run stops scheduling new snapshots, drains the
// in-flight workers, returns ctx.Err() — and leaves no half-written YAML
// behind, only complete, loadable files.
func TestProcessMapParallelCancellation(t *testing.T) {
	fx := fixtureSVGs(t)
	s := tempStore(t)
	const n = 80
	for i := 0; i < n; i++ {
		if err := s.WriteSnapshot(wmap.AsiaPacific, ts(i*5), ExtSVG, fx.healthy); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := s.ProcessMapParallel(ctx, wmap.AsiaPacific, ProcessOptions{
		Workers: 4,
		Extract: extract.DefaultOptions(),
		Progress: func(done, total int) {
			if done == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Scheduling stopped: at most the already-queued handful beyond the
	// cancellation point was processed, nowhere near the full input.
	if rep.Total() >= n {
		t.Errorf("cancellation did not stop scheduling: report %+v", rep)
	}
	// Store integrity: no temp files, and every YAML present is complete.
	yamls := 0
	err = filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		if strings.HasPrefix(filepath.Base(path), ".") {
			t.Errorf("temp file leaked: %s", path)
		}
		if strings.HasSuffix(path, "."+ExtYAML) {
			yamls++
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if _, err := extract.UnmarshalYAML(data); err != nil {
				t.Errorf("half-written YAML at %s: %v", path, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if yamls != rep.Processed {
		t.Errorf("%d YAML files on disk, report says %d processed", yamls, rep.Processed)
	}
}

// TestProcessMapParallelAlreadyCancelled: a dead context processes nothing.
func TestProcessMapParallelAlreadyCancelled(t *testing.T) {
	s, _ := seedMixedStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.ProcessMapParallel(ctx, wmap.AsiaPacific, ProcessOptions{
		Workers: 4,
		Extract: extract.DefaultOptions(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Total() != 0 {
		t.Errorf("cancelled-before-start run still processed: %+v", rep)
	}
}

// TestProcessMapParallelResumesAfterCancellation: the partial YAML output of
// an aborted run is picked up as already-processed by the next run, so the
// combined accounting converges to the sequential result.
func TestProcessMapParallelResumesAfterCancellation(t *testing.T) {
	s, want := seedMixedStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := s.ProcessMapParallel(ctx, wmap.AsiaPacific, ProcessOptions{
		Workers: 2,
		Extract: extract.DefaultOptions(),
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}
	rep, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 8,
		Extract: extract.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClasses(rep, want) {
		t.Errorf("resumed report = %+v, want %+v", rep, want)
	}
	// Snapshots the aborted run already converted skip attribution entirely
	// on resume, so the cache counters cover at most the remainder.
	if attributed := want.Processed + want.AttrFail; rep.CacheHits+rep.CacheMisses > attributed {
		t.Errorf("cache hits %d + misses %d > %d attributable snapshots",
			rep.CacheHits, rep.CacheMisses, attributed)
	}
}

// TestProcessMapParallelEmitOrdered checks the Emit contract under heavy
// concurrency: only successfully processed snapshots are emitted, in strict
// chronological order, and the per-class accounting matches the Emit-less
// run on the same fixture.
func TestProcessMapParallelEmitOrdered(t *testing.T) {
	s, want := seedMixedStore(t)
	var emitted []*wmap.Map
	rep, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 8,
		Extract: extract.DefaultOptions(),
		Emit: func(m *wmap.Map) error {
			emitted = append(emitted, m)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClasses(rep, want) {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
	if len(emitted) != want.Processed {
		t.Fatalf("emitted %d snapshots, want %d (failures must not be emitted)", len(emitted), want.Processed)
	}
	for i := 1; i < len(emitted); i++ {
		if !emitted[i].Time.After(emitted[i-1].Time) {
			t.Fatalf("emission out of order: %s then %s", emitted[i-1].Time, emitted[i].Time)
		}
	}
}

// TestProcessMapParallelEmitResumed checks a resumed run still emits the
// complete series: snapshots whose YAML already exists are loaded back
// rather than skipped silently.
func TestProcessMapParallelEmitResumed(t *testing.T) {
	s, want := seedMixedStore(t)
	if _, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 4,
		Extract: extract.DefaultOptions(),
	}); err != nil {
		t.Fatal(err)
	}
	var emitted []*wmap.Map
	rep, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 4,
		Extract: extract.DefaultOptions(),
		Emit: func(m *wmap.Map) error {
			emitted = append(emitted, m)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClasses(rep, want) {
		t.Errorf("resumed report = %+v, want %+v", rep, want)
	}
	if len(emitted) != want.Processed {
		t.Fatalf("resumed run emitted %d snapshots, want %d (existing YAMLs load back)", len(emitted), want.Processed)
	}
	for i, m := range emitted {
		if m == nil || len(m.Links) == 0 {
			t.Fatalf("emitted[%d] = %+v: loaded-back snapshot is hollow", i, m)
		}
	}
}

// TestProcessMapParallelEmitError checks an Emit failure cancels the run and
// surfaces the original error.
func TestProcessMapParallelEmitError(t *testing.T) {
	s, _ := seedMixedStore(t)
	sentinel := errors.New("archive full")
	_, err := s.ProcessMapParallel(context.Background(), wmap.AsiaPacific, ProcessOptions{
		Workers: 4,
		Extract: extract.DefaultOptions(),
		Emit:    func(m *wmap.Map) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the Emit error", err)
	}
}
