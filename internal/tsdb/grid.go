package tsdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"ovhweather/internal/ordered"
	"ovhweather/internal/wmap"
)

// The grid engine: one whole-map load query answered in a single ordered
// columnar pass, instead of the N independent scans a dashboard would
// otherwise issue per LinkKey. The rendered weather map is the paper's
// artifact — every link of a map colored at once — so the full-map range
// query is the hot path.
//
// The same engine serves /links/{id}/load?step= as a scan over one key, so
// a grid row and a per-link body are the same bytes by construction.
//
// The scan has two legs:
//
//   - Rollup leg: every link is planned through planWithBlocks, links land
//     on tiers, and each tier's needed rollup blocks are decoded ONCE; each
//     decoded block fans its buckets into all the planned links it carries.
//   - Raw leg: the raw blocks any link still needs (whole-range for links
//     the planner declined, the unrolled tail past each plan's cut for the
//     rest) are decoded ONCE through the read-ahead pipeline, and each
//     block's points fan into the per-link accumulators.
//
// A multi-link scan decodes every column of a block; a one-link scan only
// that link's two columns (see columnGroup). Either way the windows match
// stats.TimeSeries.Resample over the raw points — the contract
// TestPerLinkStepMatchesResample pins against that reference. Memory is
// bounded by maxGridCells windows across all accumulators; larger asks
// fail fast with a coarser-step hint before any decode.

// maxGridCells caps the total resample windows a grid query may allocate
// across every link accumulator (~32 B each). A month of 1h windows over a
// 600-link map is ~432k cells; the cap leaves generous headroom while
// keeping a hostile step/range combination from becoming an allocation
// bomb.
const maxGridCells = 4 << 20

// GridTooLargeError rejects a grid query whose accumulators would exceed
// maxGridCells windows, carrying a coarser step that fits.
type GridTooLargeError struct {
	Cells int64
	Max   int64
	Hint  time.Duration
}

func (e *GridTooLargeError) Error() string {
	return fmt.Sprintf("tsdb: grid of ~%d cells exceeds the %d-cell cap; resample with a coarser step (e.g. step=%s)",
		e.Cells, e.Max, formatStepParam(e.Hint))
}

// gridLink is one link's planned-or-raw accumulator inside a grid scan.
type gridLink struct {
	key  LinkKey
	plan *rollupPlan // nil: the planner declined, the raw leg serves it all
	// lw.wins is carved from the scan's window slab. A planned link's
	// windows are all there from the start; a raw link's slice has length
	// 0 and capacity its bound until its first sample anchors it, so an
	// empty series encodes as no windows.
	lw loadWindows

	// first and last are the link's first and last link-bearing raw
	// blocks over the range (-1 when it has none).
	first, last int
	end         int64 // newest raw second the link can contribute (≤ toU)
}

// gridResult is an immutable finished grid scan, shared by singleflighted
// requests.
type gridResult struct {
	id      wmap.MapID
	links   []gridLink
	planned int64 // links with a rollup plan
	rows    int64 // non-empty windows summed over links

	// cols[ti][li] is links[li]'s column in topology ti, -1 when absent;
	// nil until resolve sees ti. Only the scan goroutine resolves, always
	// before it starts the read-ahead workers that read the vectors.
	cols [][]int32
}

// resolve returns topology ti's column vector, probing the key directory
// once per link the first time ti is seen.
func (res *gridResult) resolve(topoIdx []map[LinkKey]int, ti int) []int32 {
	if col := res.cols[ti]; col != nil {
		return col
	}
	col := make([]int32, len(res.links))
	for li := range res.links {
		col[li] = -1
		if ci, ok := topoIdx[ti][res.links[li].key]; ok {
			col[li] = int32(ci)
		}
	}
	res.cols[ti] = col
	return col
}

// gridScan runs the windowed load query: every requested link's load
// series over [from, to] resampled at step, computed in one pass. keys nil
// means every link of the map, in first-seen topology order; explicit keys
// keep their order and must all exist on the map (ErrUnknownLink
// otherwise). noRollups forces the raw leg for every link — the
// corrupt-rollup degradation path.
func (r *Reader) gridScan(ctx context.Context, id wmap.MapID, keys []LinkKey, from, to time.Time, step time.Duration, noRollups bool) (*gridResult, error) {
	if step <= 0 || step%time.Second != 0 {
		return nil, fmt.Errorf("tsdb: grid step %s must be a positive whole number of seconds", step)
	}
	st := r.st()
	if !st.hasMap(id) {
		return nil, fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	fromU, toU := rangeBounds(from, to)
	s := int64(step / time.Second)
	blocks := st.blockRange(id, fromU, toU)
	topoKeys, topoIdx := st.topoKeyIndexes()

	if keys == nil {
		// The universe: every link any in-range topology carries, ordered by
		// first appearance — the column order a dashboard renders in. The
		// first topology's keys are shared as they are; a second topology
		// copies them into a set before adding its own.
		seenTopo := make(map[int]bool)
		var have map[LinkKey]bool
		for _, bi := range blocks {
			ti := st.meta(bi).topoIndex
			if seenTopo[ti] {
				continue
			}
			seenTopo[ti] = true
			if len(seenTopo) == 1 {
				keys = slices.Clip(topoKeys[ti])
				continue
			}
			if have == nil {
				have = make(map[LinkKey]bool, len(keys))
				for _, k := range keys {
					have[k] = true
				}
			}
			for _, k := range topoKeys[ti] {
				if !have[k] {
					have[k] = true
					keys = append(keys, k)
				}
			}
		}
	} else {
		for _, k := range keys {
			if !st.mapHasLink(id, k) {
				return nil, fmt.Errorf("tsdb: %s link %s: %w", id, k, ErrUnknownLink)
			}
		}
	}

	res := &gridResult{id: id, links: make([]gridLink, len(keys)), cols: make([][]int32, len(st.topos))}
	usePlans := !noRollups && !r.rollupOff.Load()
	for li := range res.links {
		res.links[li].key = keys[li]
		res.links[li].first, res.links[li].last = -1, -1
	}
	for _, bi := range blocks {
		for li, ci := range res.resolve(topoIdx, st.meta(bi).topoIndex) {
			if ci < 0 {
				continue
			}
			gl := &res.links[li]
			if gl.first < 0 {
				gl.first = bi
			}
			gl.last = bi
		}
	}

	// Plan every link, then bound the total accumulator size before
	// allocating anything. The plans share one array.
	var cells int64
	var plans []rollupPlan
	if usePlans {
		plans = make([]rollupPlan, len(res.links))
	}
	for li := range res.links {
		gl := &res.links[li]
		if gl.first < 0 {
			continue // no data in range: encodes as empty series
		}
		gl.end = st.meta(gl.last).lastUnix
		if gl.end > toU {
			gl.end = toU
		}
		if usePlans {
			lookup := func(ti int) int { return int(res.resolve(topoIdx, ti)[li]) }
			var ok bool
			if plans[li], ok = planWithBlocks(st, id, lookup, gl.first, gl.last, fromU, toU, s); ok {
				gl.plan = &plans[li]
			}
		}
		if gl.plan != nil {
			res.planned++
		}
		cells += gl.bound(st, fromU, s)
	}
	if cells > maxGridCells {
		// Scale the step up until the cells fit.
		factor := (cells + maxGridCells - 1) / maxGridCells
		return nil, &GridTooLargeError{Cells: cells, Max: maxGridCells, Hint: st.tierStep(id, s*factor)}
	}

	// One window slab for the whole scan, carved per link: a planned
	// link's windows in full, a raw link's as an empty slice with its
	// bound as capacity, grown in place by its first sample.
	slab := make([]loadWindow, cells)
	for k := range slab {
		slab[k].abMin, slab[k].baMin = math.MaxUint8, math.MaxUint8
	}
	for li := range res.links {
		gl := &res.links[li]
		n := gl.bound(st, fromU, s)
		switch {
		case gl.plan != nil:
			gl.lw = loadWindows{t0: gl.plan.t0, step: s, wins: slab[:n:n]}
		case n > 0:
			gl.lw.wins = slab[:0:n]
		}
		slab = slab[n:]
	}

	if err := r.gridRollupLeg(ctx, st, res, topoIdx, s); err != nil {
		return nil, err
	}
	if err := r.gridRawLeg(ctx, st, res, blocks, fromU, toU, s); err != nil {
		return nil, err
	}
	for li := range res.links {
		for k := range res.links[li].lw.wins {
			if res.links[li].lw.wins[k].n > 0 {
				res.rows++
			}
		}
	}
	return res, nil
}

// bound is the number of windows the link's accumulator needs: 0 with no
// data in range, the plan's count for a planned link, and for a raw link a
// bound from the first block's base time. A raw link anchors at its first
// decoded sample, which is never earlier, so its real count never exceeds
// the bound.
func (gl *gridLink) bound(st *readerState, fromU, s int64) int64 {
	switch {
	case gl.first < 0:
		return 0
	case gl.plan != nil:
		return gl.plan.nWins
	}
	t0 := max(st.meta(gl.first).baseUnix, fromU)
	return (gl.end-t0)/s + 1
}

// columnGroup is the cache column group the scan decodes topology ti's
// blocks with. A one-link scan decodes only that link's two columns — the
// decode work and cache keys a single-link query has always had — while a
// multi-link scan decodes every column once and fans it out.
// Topology ti must already be resolved.
func (res *gridResult) columnGroup(ti int) int {
	if len(res.links) != 1 {
		return allColumns
	}
	return int(res.cols[ti][0])
}

// gridRollupLeg serves every planned link's bulk [t0, cut) from its tier:
// the union of rollup blocks any link on a tier needs is decoded once, and
// each decoded block fans its buckets into every planned link it carries.
// Inclusion per link repeats planWithBlocks' rollup-block filter exactly,
// so each accumulator folds the (block, bucket) set its plan proved
// complete.
//
//wm:hotpath
func (r *Reader) gridRollupLeg(ctx context.Context, st *readerState, res *gridResult, topoIdx []map[LinkKey]int, s int64) error {
	byRes := make(map[int64][]int)
	for li := range res.links {
		gl := &res.links[li]
		if gl.plan == nil {
			continue
		}
		byRes[gl.plan.res] = append(byRes[gl.plan.res], li)
	}
	if len(byRes) == 0 {
		return nil
	}
	resolutions := make([]int64, 0, len(byRes))
	for tierRes := range byRes {
		resolutions = append(resolutions, tierRes)
	}
	slices.Sort(resolutions)

	for _, tierRes := range resolutions {
		links := byRes[tierRes]
		tier := tierOf(st.rollupTiers[res.id], tierRes)
		if tier == nil { // unreachable: the plan chose the tier from this list
			return corruptf(0, "planned tier %ds vanished from map %s", tierRes, res.id)
		}
		// The union of every link's rids, in the tier's chronological order.
		// The span test comes first, so only entries some link folds get
		// their topology resolved.
		rids := make([]int, 0, len(tier.entries))
		for _, ri := range tier.entries {
			m := &st.rollups[ri]
			for _, li := range links {
				gl := &res.links[li]
				if m.lastBucket < gl.plan.t0 || m.firstBucket >= gl.plan.cut || res.resolve(topoIdx, m.topoIndex)[li] < 0 {
					continue
				}
				rids = append(rids, ri)
				break
			}
		}
		pool := ordered.Run(ctx, len(rids), runtime.GOMAXPROCS(0), func(_, i int) (*decodedRollup, error) {
			return r.rollup(st, rids[i], res.columnGroup(st.rollups[rids[i]].topoIndex))
		})
		err := func() error {
			defer pool.Stop()
			i := 0
			for pool.Next() {
				ru := pool.Value()
				m := &st.rollups[rids[i]]
				i++
				col := res.cols[m.topoIndex]
				for _, li := range links {
					gl := &res.links[li]
					ci := col[li]
					if ci < 0 || m.lastBucket < gl.plan.t0 || m.firstBucket >= gl.plan.cut {
						continue
					}
					if err := foldRollupWindows(ru, int(ci), &gl.lw, gl.plan.cut); err != nil {
						return err
					}
				}
			}
			return pool.Err()
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// foldRollupWindows folds one link's buckets of a decoded rollup block into
// its window accumulator. Fragments of one bucket (topology splits) merge
// by summing counts and sums and widening extremes — together they are the
// full bucket.
//
//wm:hotpath
func foldRollupWindows(ru *decodedRollup, ci int, lw *loadWindows, cut int64) error {
	abS, baS := ru.sums[2*ci], ru.sums[2*ci+1]
	abMin, abMax := ru.mins[2*ci], ru.maxs[2*ci]
	baMin, baMax := ru.mins[2*ci+1], ru.maxs[2*ci+1]
	for bi, start := range ru.starts {
		if start < lw.t0 {
			continue
		}
		if start >= cut {
			break // starts ascend; the rest is served raw
		}
		k := (start - lw.t0) / lw.step
		if k >= int64(len(lw.wins)) {
			return corruptf(ru.meta.offset, "rollup bucket at %d beyond the map's raw range", start)
		}
		w := &lw.wins[k]
		w.n += ru.counts[bi]
		w.ab += abS[bi]
		w.ba += baS[bi]
		if abMin[bi] < w.abMin {
			w.abMin = abMin[bi]
		}
		if abMax[bi] > w.abMax {
			w.abMax = abMax[bi]
		}
		if baMin[bi] < w.baMin {
			w.baMin = baMin[bi]
		}
		if baMax[bi] > w.baMax {
			w.baMax = baMax[bi]
		}
	}
	return nil
}

// gridRawLeg decodes, once each and in order, the raw blocks any link still
// needs, and fans each block's trimmed points into the accumulators: the
// whole range for planner-declined links (windows lazily anchored at the
// link's first in-range sample, exactly Resample's anchor), the tail past
// cut for planned ones.
//
//wm:hotpath
func (r *Reader) gridRawLeg(ctx context.Context, st *readerState, res *gridResult, blocks []int, fromU, toU, s int64) error {
	// A block is needed when a link it carries is unplanned, or is planned
	// and has its tail past cut there.
	var ids []int
	for _, bi := range blocks {
		meta := st.meta(bi)
		for li, ci := range res.cols[meta.topoIndex] {
			if ci < 0 {
				continue
			}
			if p := res.links[li].plan; p == nil || (p.cut <= toU && meta.lastUnix >= p.cut) {
				ids = append(ids, bi)
				break
			}
		}
	}
	group := func(i int) int { return res.columnGroup(st.meta(ids[i]).topoIndex) }
	return r.scanBlocks(ctx, st, ids, group, fromU, toU, func(i int, db *decodedBlock, lo, hi int) error {
		meta := st.meta(ids[i])
		col := res.cols[meta.topoIndex]
		for li := range res.links {
			ci := int(col[li])
			if ci < 0 {
				continue
			}
			gl := &res.links[li]
			start := lo
			if gl.plan != nil {
				if gl.plan.cut > toU || meta.lastUnix < gl.plan.cut {
					continue
				}
				// The tail starts at cut, not fromU — the tier already
				// served everything before it.
				start = lo + sort.Search(hi-lo, func(k int) bool { return db.times[lo+k] >= gl.plan.cut })
			}
			gl.accumulateRaw(db.times[start:hi], db.cols[2*ci][start:hi], db.cols[2*ci+1][start:hi], s)
		}
		return nil
	})
}

// accumulateRaw folds trimmed raw points into the link's windows. A
// planner-declined link takes its windows from its slab reservation on the
// first sample, anchoring t0 there — exactly Resample's anchor. Times
// ascend, so the window index is divided out only when a point reaches
// next, the second the following window starts. The current window lives
// in locals and is written back only when a point leaves it and once at
// the end; the extremes are ints, because the compiler turns an int
// min/max into a conditional move where a byte-wide one stays a branch
// that mispredicts on noisy loads.
//
//wm:hotpath
func (gl *gridLink) accumulateRaw(times []int64, abCol, baCol []wmap.Load, s int64) {
	if len(times) == 0 {
		return
	}
	if len(gl.lw.wins) == 0 {
		t0 := times[0]
		gl.lw.t0, gl.lw.step = t0, s
		gl.lw.wins = gl.lw.wins[:(gl.end-t0)/s+1]
	}
	if len(times) == 1 {
		// A one-snapshot block: fold the point in place, without the
		// locals' load and write-back.
		gl.lw.wins[(times[0]-gl.lw.t0)/s].add(abCol[0], baCol[0])
		return
	}
	abCol, baCol = abCol[:len(times)], baCol[:len(times)]
	wins, t0 := gl.lw.wins, gl.lw.t0
	i := (times[0] - t0) / s
	w, next := &wins[i], t0+(i+1)*s
	n, abSum, baSum := w.n, w.ab, w.ba
	abMin, abMax, baMin, baMax := int(w.abMin), int(w.abMax), int(w.baMin), int(w.baMax)
	for k, sec := range times {
		if sec >= next {
			w.n, w.ab, w.ba = n, abSum, baSum
			w.abMin, w.abMax, w.baMin, w.baMax = uint8(abMin), uint8(abMax), uint8(baMin), uint8(baMax)
			i = (sec - t0) / s
			w, next = &wins[i], t0+(i+1)*s
			n, abSum, baSum = w.n, w.ab, w.ba
			abMin, abMax, baMin, baMax = int(w.abMin), int(w.abMax), int(w.baMin), int(w.baMax)
		}
		ab, ba := int(abCol[k]), int(baCol[k])
		n++
		abSum += int64(ab)
		baSum += int64(ba)
		abMin = min(abMin, ab)
		abMax = max(abMax, ab)
		baMin = min(baMin, ba)
		baMax = max(baMax, ba)
	}
	w.n, w.ab, w.ba = n, abSum, baSum
	w.abMin, w.abMax, w.baMin, w.baMax = uint8(abMin), uint8(abMax), uint8(baMin), uint8(baMax)
}

// add folds one point into the window.
func (w *loadWindow) add(ab, ba wmap.Load) {
	w.n++
	w.ab += int64(ab)
	w.ba += int64(ba)
	w.abMin, w.abMax = min(w.abMin, uint8(ab)), max(w.abMax, uint8(ab))
	w.baMin, w.baMax = min(w.baMin, uint8(ba)), max(w.baMax, uint8(ba))
}

// GridChunk is one block's worth of the whole-map columnar scan behind
// Reader.GridColumns: the block topology's links in column order, the
// trimmed time column, and each link's two directed load columns aligned
// with Times. Every slice aliases shared (possibly cached) decoded state —
// callers must not mutate or retain them past the callback.
type GridChunk struct {
	Keys  []LinkKey      // column order, ordinals assigned
	Links []wmap.Link    // the topology rows (loads zeroed)
	Topo  *wmap.Topology // the block's interned topology, of exactly Links
	Times []int64        // snapshot seconds, trimmed to the query range
	AB    [][]wmap.Load
	BA    [][]wmap.Load
}

// GridColumns streams the map's raw columns block by block over [from, to]
// (zero times unbounded), decoding each block once with every column — the
// multi-link fold primitive wmanalyze's imbalance and weekly figures
// consume instead of materializing a *wmap.Map per snapshot.
func (r *Reader) GridColumns(ctx context.Context, id wmap.MapID, from, to time.Time, fn func(c *GridChunk) error) error {
	st := r.st()
	if !st.hasMap(id) {
		return fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	fromU, toU := rangeBounds(from, to)
	ids := st.blockRange(id, fromU, toU)
	topoKeys, _ := st.topoKeyIndexes()
	if len(ids) != 0 {
		r.grid.columnScans.Add(1)
	}
	var c GridChunk
	return r.scanBlocks(ctx, st, ids, func(int) int { return allColumns }, fromU, toU, func(i int, db *decodedBlock, lo, hi int) error {
		ti := st.meta(ids[i]).topoIndex
		c.Keys = topoKeys[ti]
		c.Topo = st.topos[ti]
		c.Links = c.Topo.Links()
		L := len(c.Links)
		c.Times = db.times[lo:hi]
		c.AB = append(c.AB[:0], make([][]wmap.Load, L)...)
		c.BA = append(c.BA[:0], make([][]wmap.Load, L)...)
		for li := 0; li < L; li++ {
			c.AB[li] = db.cols[2*li][lo:hi]
			c.BA[li] = db.cols[2*li+1][lo:hi]
		}
		return fn(&c)
	})
}

// gridCounters tallies the grid engine's serving behavior; the fields
// mirror GridStats.
type gridCounters struct {
	queries, linksPlanned, linksRaw, rows    atomic.Int64
	dedups, streamed, fallbacks, columnScans atomic.Int64
}

// GridStats is the /api/v1/stats "grid" group and the tsdb_grid expvar: the
// grid query counters, each read atomically on its own (the group is not
// one locked snapshot).
type GridStats struct {
	// Queries counts /api/v1/grid scans (deduplicated waiters excluded);
	// per-link stepped queries count in PlannerStats instead.
	Queries int64 `json:"queries"`
	// LinksPlanned / LinksRaw count per-link accumulators by serving path.
	LinksPlanned int64 `json:"links_planned"`
	LinksRaw     int64 `json:"links_raw"`
	// Rows counts emitted non-empty resample windows across all queries.
	Rows int64 `json:"rows"`
	// Dedups counts requests that shared another request's in-flight scan.
	Dedups int64 `json:"dedups"`
	// Streamed counts responses flushed in chunks rather than one body.
	Streamed int64 `json:"streamed"`
	// Fallbacks counts scans degraded to raw-only by a corrupt rollup.
	Fallbacks int64 `json:"rollup_fallbacks"`
	// ColumnScans counts GridColumns fold passes (wmanalyze's figures).
	ColumnScans int64 `json:"column_scans"`
}

// GridStats reads the grid engine counters.
func (r *Reader) GridStats() GridStats {
	g := &r.grid
	return GridStats{
		Queries:      g.queries.Load(),
		LinksPlanned: g.linksPlanned.Load(),
		LinksRaw:     g.linksRaw.Load(),
		Rows:         g.rows.Load(),
		Dedups:       g.dedups.Load(),
		Streamed:     g.streamed.Load(),
		Fallbacks:    g.fallbacks.Load(),
		ColumnScans:  g.columnScans.Load(),
	}
}
