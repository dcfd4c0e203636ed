// The concurrent processing layer: the paper's pipeline turns ~695k
// five-minute SVG snapshots into YAML topologies, and both directions of
// that conversion are embarrassingly parallel per input — each snapshot's
// extract→marshal→write chain (and each YAML decode on the way back) touches
// only its own files. ProcessMapParallel and WalkMapsParallel both run on
// the ordered pool (package ordered): workers process snapshots
// concurrently, and the calling goroutine consumes the results in
// chronological order. Both thread a context through so a failing walk or
// Ctrl-C aborts in-flight workers cleanly.
//
// Concurrency contract: a Store holds no mutable state — every method may be
// called concurrently. WriteSnapshot stays atomic (temp file + rename), so
// concurrent writers of the same snapshot are last-writer-wins with no torn
// files, and cancellation can never leave a half-written YAML behind.
package dataset

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/ordered"
	"ovhweather/internal/wmap"
)

// ProcessOptions configures a batch-processing run.
type ProcessOptions struct {
	// Workers is the worker-pool size; zero or negative means
	// runtime.GOMAXPROCS(0). Workers == 1 reproduces the sequential
	// ProcessMap behaviour exactly, including the progress-call sequence.
	Workers int

	// Extract tunes Algorithms 1 and 2 (see extract.Options).
	Extract extract.Options

	// Progress, when non-nil, observes completion: it is called once with
	// (0, total) before processing starts and once per finished snapshot,
	// in chronological order, with a monotonically increasing done count.
	// Calls are serialized; Progress must not call back into the
	// processing run.
	Progress func(done, total int)

	// Emit, when non-nil, receives every successfully processed snapshot in
	// chronological order — including snapshots skipped because their YAML
	// already existed, which are loaded back so a resumed run still emits
	// the complete series. Calls are serialized on a single goroutine; an
	// Emit error cancels the run and is returned. This is how a tsdb.Writer
	// (whose Append requires per-map chronological order) taps the pipeline.
	Emit func(*wmap.Map) error

	// EmitFrom, when non-zero and Emit is set, skips every snapshot at or
	// before it entirely — no processing, no YAML load-back, no emission.
	// A follow-mode ingester sets it to the archive's last appended time
	// each poll cycle, so the incremental cost of a cycle is proportional
	// to the snapshots that actually arrived, not to the whole corpus.
	EmitFrom time.Time
}

func (o ProcessOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// ProcessMapParallel is ProcessMap on the ordered pool: each worker runs
// the independent extract→marshal→write chain with its own attribution
// cache and scratch buffers, and the calling goroutine reports progress
// and emits maps in chronological order. Every counter is a commutative
// sum of the workers' reports, so the resulting ProcessReport is
// deterministic regardless of scheduling.
//
// Cancelling ctx stops scheduling new snapshots, drains the in-flight
// workers, and returns ctx.Err() with the partial report, which counts
// every YAML the run wrote. Snapshots already fully written stay in place
// (the run is resumable — existing YAMLs count as processed on the next
// run) and WriteSnapshot's atomicity guarantees no half-written YAML
// survives the abort.
func (s *Store) ProcessMapParallel(ctx context.Context, id wmap.MapID, opt ProcessOptions) (ProcessReport, error) {
	rep := ProcessReport{Map: id}
	entries, err := s.Index(id, ExtSVG)
	if err != nil {
		return rep, err
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if opt.Emit != nil && !opt.EmitFrom.IsZero() {
		// Entries are chronological: drop the prefix the emitter already has.
		lo := sort.Search(len(entries), func(i int) bool { return entries[i].Time.After(opt.EmitFrom) })
		entries = entries[lo:]
	}
	total := len(entries)
	workers := opt.workers()
	if workers > total && total > 0 {
		workers = total
	}
	if opt.Progress != nil {
		opt.Progress(0, total)
	}

	// Per-worker state, indexed by the pool's worker index: each worker
	// takes snapshots in roughly chronological order, so consecutive jobs
	// usually share a topology and hit its attribution cache.
	caches := make([]*extract.AttributionCache, workers)
	scratch := make([]procScratch, workers)
	reps := make([]ProcessReport, workers)
	for w := range caches {
		caches[w] = extract.NewAttributionCache(opt.Extract)
	}
	pool := ordered.Run(ctx, total, workers, func(w, i int) (*wmap.Map, error) {
		o, m := s.processSnapshot(id, entries[i].Time, caches[w], &scratch[w], opt.Emit != nil)
		o.count(&reps[w])
		return m, nil
	})
	defer pool.Stop()

	var emitErr error
	done := 0
	for pool.Next() {
		done++
		if opt.Progress != nil {
			opt.Progress(done, total)
		}
		if m := pool.Value(); opt.Emit != nil && m != nil {
			if err := opt.Emit(m); err != nil {
				emitErr = fmt.Errorf("dataset: emitting %s at %s: %w", id, entries[done-1].Time, err)
				break
			}
		}
	}
	pool.Stop()
	for w := range reps {
		reps[w].CacheHits, reps[w].CacheMisses = caches[w].Hits(), caches[w].Misses()
		rep.add(reps[w])
	}
	if emitErr != nil {
		return rep, emitErr
	}
	return rep, pool.Err()
}

// WalkMapsParallel loads every processed snapshot of one map on the
// ordered pool — workers goroutines load and unmarshal YAML snapshots —
// while fn receives every map in chronological order on the calling
// goroutine, so an unsynchronized fold (a tsdb.Writer's Append, say) is
// safe.
//
// A decoding failure or an error from fn cancels the in-flight workers and
// is returned; cancelling ctx aborts the walk with ctx.Err(). workers <= 0
// means runtime.GOMAXPROCS(0).
func (s *Store) WalkMapsParallel(ctx context.Context, id wmap.MapID, workers int, fn func(*wmap.Map) error) error {
	entries, err := s.Index(id, ExtYAML)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := ordered.Run(ctx, len(entries), workers, func(_, i int) (*wmap.Map, error) {
		m, err := s.LoadMap(id, entries[i].Time)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s at %s: %w", id, entries[i].Time, err)
		}
		return m, nil
	})
	defer pool.Stop()
	for pool.Next() {
		if err := fn(pool.Value()); err != nil {
			return err
		}
	}
	// A cancelled ctx ends the stream early, so a completed drain still
	// reports the cancellation, not success.
	return pool.Err()
}
