package tsdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovhweather/internal/ordered"
	"ovhweather/internal/wmap"
)

// The query planner: a step-resampled load query whose step is a multiple
// of a rollup tier's resolution is answered from that tier's pre-aggregated
// buckets plus a raw scan of the short unrolled tail, instead of decoding
// every raw point. The planner only accepts a plan it can prove serves the
// exact bytes of the raw path — windows anchored at the range's first
// point, bucket boundaries aligned to window boundaries, means computed as
// weighted mean-of-means through the count column (integer sums, so the
// float64 arithmetic matches stats.TimeSeries.Resample digit for digit).
// Anything it cannot prove — a step no tier divides, a misaligned anchor —
// it declines, and the grid scan serves that link from raw blocks. A
// corrupt rollup block surfaces as a typed *CorruptError the API degrades
// on; the planner never guesses.

// loadWindow accumulates one resample window of a planned query: the
// snapshot count, the two directed load sums, and the per-direction
// extremes (served as the min/max bands).
type loadWindow struct {
	n      int64
	ab, ba int64
	abMin  uint8
	abMax  uint8
	baMin  uint8
	baMax  uint8
}

// loadWindows is one link's resampled series: fixed windows of width step
// anchored at t0, mirroring Resample's bucketing. Windows with n == 0 are
// skipped at encode time, exactly as Resample skips empty windows.
type loadWindows struct {
	t0   int64 // first window start: the range's first raw point
	step int64 // window width, seconds
	wins []loadWindow
}

// rollupPlan is the outcome of planning: the tier at resolution res serves
// the windows [t0, cut), raw blocks the tail [cut, toU].
type rollupPlan struct {
	t0, res int64
	cut     int64 // t0 + (windows served from rollups) * step
	nWins   int64 // total window array length
}

// planWithBlocks decides whether [fromU, toU] resampled at s seconds can be
// served from a rollup tier, returning false to decline. Tiers are tried
// coarsest first; a tier is eligible when its resolution divides the step
// AND the anchor, so every bucket nests inside exactly one window. lookup
// resolves the link's column in a topology (-1 when the topology lacks
// it); first and last are the first and last link-bearing raw blocks of
// the range (first < 0 when there are none). The grid engine plans every
// link it scans through here.
func planWithBlocks(st *readerState, id wmap.MapID, lookup func(ti int) int, first, last int, fromU, toU, s int64) (rollupPlan, bool) {
	if first < 0 {
		return rollupPlan{}, false
	}
	// The raw path's Resample anchors windows at the first point in range.
	// That anchor is knowable without decoding only when the first block
	// starts inside the range — then it is exactly the block's base time.
	t0 := st.meta(first).baseUnix
	if t0 < fromU {
		return rollupPlan{}, false
	}
	end := st.meta(last).lastUnix
	if end > toU {
		end = toU
	}
	nWins := (end-t0)/s + 1
	tiers := st.rollupTiers[id]
	for k := len(tiers) - 1; k >= 0; k-- {
		tier := &tiers[k]
		res := tier.res
		if s%res != 0 || t0%res != 0 {
			continue
		}
		// The tier is complete strictly below its horizon: every raw point
		// before it is aggregated in some flushed bucket. The bucket holding
		// the tier's newest point may still be partial, so it is excluded.
		horizon := tier.maxLast - tier.maxLast%res
		wEnd := horizon
		if toU < math.MaxInt64 && toU+1 < wEnd {
			wEnd = toU + 1
		}
		nWin := (wEnd - t0) / s
		if nWin <= 0 {
			continue
		}
		cut := t0 + nWin*s
		for _, ri := range tier.entries {
			m := &st.rollups[ri]
			if m.lastBucket >= t0 && m.firstBucket < cut && lookup(m.topoIndex) >= 0 {
				return rollupPlan{t0: t0, res: res, cut: cut, nWins: nWins}, true
			}
		}
	}
	return rollupPlan{}, false
}

// plannerCounters tallies which path served each load query; only the
// per-tier map needs the mutex.
type plannerCounters struct {
	raw, fallbacks atomic.Int64
	mu             sync.Mutex
	tiers          map[int64]int64
}

// PlannerStats reports the planner counters, exposed on GET /api/v1/stats
// and through wmserve's expvar.
type PlannerStats struct {
	// Raw counts stepped per-link queries served entirely from raw blocks —
	// no divisible tier or provable anchor, or rollups absent/disabled.
	// Unstepped queries stream raw columns and are not counted.
	Raw int64 `json:"raw"`
	// Fallbacks counts queries the planner accepted but that degraded to
	// the raw path on a corrupt rollup block.
	Fallbacks int64 `json:"rollup_fallbacks"`
	// Tiers counts queries served per rollup resolution, keyed like "1h".
	Tiers map[string]int64 `json:"tiers"`
}

// countTier records one stepped per-link query served from the tier at res
// seconds.
func (r *Reader) countTier(res int64) {
	r.planner.mu.Lock()
	defer r.planner.mu.Unlock()
	if r.planner.tiers == nil {
		r.planner.tiers = make(map[int64]int64)
	}
	r.planner.tiers[res]++
}

// PlannerStats reads the per-path serve counters.
func (r *Reader) PlannerStats() PlannerStats {
	ps := PlannerStats{Raw: r.planner.raw.Load(), Fallbacks: r.planner.fallbacks.Load()}
	r.planner.mu.Lock()
	defer r.planner.mu.Unlock()
	ps.Tiers = make(map[string]int64, len(r.planner.tiers))
	for res, n := range r.planner.tiers {
		ps.Tiers[formatRes(res)] = n
	}
	return ps
}

// formatRes renders a resolution in seconds the way operators write it:
// whole days, hours, or minutes when exact, seconds otherwise.
func formatRes(sec int64) string {
	switch {
	case sec%86400 == 0:
		return fmt.Sprintf("%dd", sec/86400)
	case sec%3600 == 0:
		return fmt.Sprintf("%dh", sec/3600)
	case sec%60 == 0:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// RollupBucket is one complete bucket of a rollup tier aggregated across
// every link direction of a map — the unit wmanalyze's long-range folds
// consume instead of re-averaging raw points.
type RollupBucket struct {
	Start     time.Time // bucket start (aligned to the resolution)
	Snapshots int64     // map snapshots aggregated into the bucket
	Samples   int64     // load samples: snapshots × directed links, summed across topologies
	Sum       float64   // sum of all load samples in the bucket
	Min       float64   // smallest single-direction load seen
	Max       float64   // largest single-direction load seen
}

// RollupTotals returns the map's complete rollup buckets at resolution res
// whose start falls in [from, to] (zero times mean unbounded), merged
// across topology fragments and sorted by start. Only buckets the tier has
// provably sealed are returned — the bucket that may still be filling is
// omitted, so totals never change retroactively as a live archive grows.
// It fails with ErrNoRollup when the archive has no tier at res, and with
// ErrUnknownMap for an unarchived map.
func (r *Reader) RollupTotals(ctx context.Context, id wmap.MapID, res time.Duration, from, to time.Time) ([]RollupBucket, error) {
	st := r.st()
	if !st.hasMap(id) {
		return nil, fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	if res <= 0 || res%time.Second != 0 {
		return nil, fmt.Errorf("tsdb: resolution %s: %w", res, ErrNoRollup)
	}
	sec := int64(res / time.Second)
	tier := tierOf(st.rollupTiers[id], sec)
	if tier == nil {
		return nil, fmt.Errorf("tsdb: map %s at %s: %w", id, res, ErrNoRollup)
	}
	fromU, toU := rangeBounds(from, to)
	horizon := tier.maxLast - tier.maxLast%sec

	type agg struct {
		snapshots, samples int64
		sum                int64
		min, max           uint8
	}
	byStart := make(map[int64]*agg)
	pool := ordered.Run(ctx, len(tier.entries), runtime.GOMAXPROCS(0), func(_, i int) (*decodedRollup, error) {
		return r.rollup(st, tier.entries[i], allColumns)
	})
	defer pool.Stop()
	for pool.Next() {
		ru := pool.Value()
		cols := 2 * ru.meta.links
		for bi, start := range ru.starts {
			if start < fromU || start > toU || start+sec > horizon {
				continue
			}
			a := byStart[start]
			if a == nil {
				a = &agg{min: math.MaxUint8}
				byStart[start] = a
			}
			a.snapshots += ru.counts[bi]
			a.samples += ru.counts[bi] * int64(cols)
			for c := 0; c < cols; c++ {
				a.sum += ru.sums[c][bi]
				if ru.mins[c][bi] < a.min {
					a.min = ru.mins[c][bi]
				}
				if ru.maxs[c][bi] > a.max {
					a.max = ru.maxs[c][bi]
				}
			}
		}
	}
	if err := pool.Err(); err != nil {
		return nil, err
	}
	bks := make([]RollupBucket, 0, len(byStart))
	for start, a := range byStart {
		bks = append(bks, RollupBucket{
			Start: time.Unix(start, 0).UTC(), Snapshots: a.snapshots,
			Samples: a.samples, Sum: float64(a.sum),
			Min: float64(a.min), Max: float64(a.max),
		})
	}
	sort.Slice(bks, func(a, b int) bool { return bks[a].Start.Before(bks[b].Start) })
	return bks, nil
}

// suggestStep computes the over-cap hint on the load endpoint: the
// smallest step that brings a raw range under the response cap, rounded up
// to a resolution the planner can serve from a rollup tier when one exists.
func suggestStep(st *readerState, id wmap.MapID, from, to time.Time, rawPoints, maxPoints int) time.Duration {
	fromU, toU := rangeBounds(from, to)
	if f, t, ok := st.bounds(id); ok {
		if fu := f.Unix(); fromU < fu {
			fromU = fu
		}
		if tu := t.Unix(); toU > tu {
			toU = tu
		}
	}
	span := toU - fromU
	if span <= 0 || rawPoints <= 0 || maxPoints <= 0 {
		return time.Hour
	}
	// Each emitted window carries two directed points; need windows ≤ cap/2.
	need := span * 2 / int64(maxPoints)
	if need < 1 {
		need = 1
	}
	for _, tier := range st.rollupTiers[id] {
		if tier.res >= need {
			return time.Duration(tier.res) * time.Second
		}
	}
	return st.tierStep(id, need)
}

// tierStep is the step hint for a needed step of need seconds: rounded up
// to a multiple of the map's coarsest rollup tier when it has one, so the
// planner still serves the suggestion from rollups.
func (st *readerState) tierStep(id wmap.MapID, need int64) time.Duration {
	if tiers := st.rollupTiers[id]; len(tiers) > 0 {
		coarsest := tiers[len(tiers)-1].res // tiers ascend by resolution
		need = (need + coarsest - 1) / coarsest * coarsest
	}
	return time.Duration(need) * time.Second
}
