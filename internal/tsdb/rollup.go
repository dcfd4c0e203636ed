package tsdb

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sort"
	"time"

	"ovhweather/internal/wmap"
)

// Rollup tiers: pre-aggregated (count, sum, min, max) columns per link
// direction at fixed resolutions, maintained at write time and indexed in
// the footer. A long-range resampled query whose step is a multiple of a
// tier's resolution is answered from the tier's buckets — an exact
// weighted mean-of-means via the count column — instead of decoding every
// raw point; see planner.go for the read side.
//
// Rollup blocks are framed exactly like raw blocks (writeFrame) and live
// interleaved with them in the data section, always after the raw block
// whose flush event produced them.
// Payload layout, all varints unless stated:
//
//	uvarint mapRef, resolution (s), topoIndex, firstBucketStart, B, L
//	uvarint startColLen, countColLen, 2L × sumColLen   (directory)
//	start column: B-1 uvarint deltas in units of the resolution (≥ 1)
//	count column: B uvarint snapshot counts (≥ 1), shared by all columns
//	2L sum columns: uvarint first value, B-1 zigzag varint deltas
//	2L × (B min bytes, B max bytes): raw per-bucket load extremes
//
// One rollup block covers one run: a maximal stretch of one map's
// snapshots under one topology. Topology changes close the current run and
// flush it as a fragment whose last bucket may be partial; readers merge
// fragments of the same bucket by summing counts and sums and widening the
// extremes, which reconstructs the exact full-bucket aggregate.

// DefaultRollupResolutions are the tiers a Writer maintains unless
// SetRollupResolutions overrides them.
var DefaultRollupResolutions = []time.Duration{time.Hour, 24 * time.Hour}

const (
	// footerVersionRollups marks the versioned footer suffix that carries
	// the rollup index. A footer that ends right after the block index is
	// the PR 3–6 v1 format: readable, no rollups, planner falls back raw.
	footerVersionRollups = 2

	// rollupFlushBuckets is how many sealed (complete) buckets a run
	// accumulates before a flush event writes them out mid-run.
	rollupFlushBuckets = 16
)

// ErrNoRollup reports that an archive holds no rollup tier at the
// requested resolution (a v1 archive, or rollups were disabled).
var ErrNoRollup = errors.New("tsdb: no rollup tier at that resolution")

// rollupMeta is one footer rollup-index row, mirroring blockMeta.
type rollupMeta struct {
	frame
	mapRef      uint64
	res         int64 // bucket resolution, seconds
	topoIndex   int
	firstBucket int64 // start of the first bucket, unix seconds
	lastBucket  int64 // start of the last bucket, unix seconds
	lastPoint   int64 // newest raw snapshot aggregated into the block
	buckets     int
	links       int
}

// rollupBucket accumulates one resolution window of one run.
type rollupBucket struct {
	start int64 // bucket start, unix seconds (multiple of the resolution)
	last  int64 // newest point accumulated
	count int64 // snapshots seen; identical for every column of the run
	sums  []int64
	mins  []uint8
	maxs  []uint8
}

func newRollupBucket(start int64, cols int) *rollupBucket {
	b := &rollupBucket{start: start, sums: make([]int64, cols),
		mins: make([]uint8, cols), maxs: make([]uint8, cols)}
	for i := range b.mins {
		b.mins[i] = math.MaxUint8
	}
	return b
}

// observe folds one load sample into column c.
//
//wm:hotpath
func (b *rollupBucket) observe(c int, v uint8) {
	b.sums[c] += int64(v)
	if v < b.mins[c] {
		b.mins[c] = v
	}
	if v > b.maxs[c] {
		b.maxs[c] = v
	}
}

// rollupRun is one topology's stretch of buckets: sealed buckets are
// complete (a later point crossed their end), cur is still filling.
type rollupRun struct {
	topoIndex int
	cols      int // 2L
	sealed    []*rollupBucket
	cur       *rollupBucket
}

// rollupAcc is one (map, resolution) accumulator. done holds runs closed
// by a topology change, awaiting the next flush event.
type rollupAcc struct {
	res  int64
	done []*rollupRun
	run  *rollupRun
}

// retire closes the current run when its topology differs from ti, queuing
// it for the next flush event. The next point then starts a fresh run.
func (acc *rollupAcc) retire(ti int) {
	if acc.run != nil && acc.run.topoIndex != ti {
		acc.done = append(acc.done, acc.run)
		acc.run = nil
	}
}

// addPoint advances the accumulator to time t under topology ti and
// returns the bucket the caller folds the point's loads into. The caller
// must have retired a mismatched-topology run first.
//
//wm:hotpath
func (acc *rollupAcc) addPoint(ti int, t int64, cols int) *rollupBucket {
	run := acc.run
	if run == nil {
		run = &rollupRun{topoIndex: ti, cols: cols}
		acc.run = run
	}
	start := t - t%acc.res
	b := run.cur
	if b == nil || b.start != start {
		if b != nil {
			run.sealed = append(run.sealed, b)
		}
		b = newRollupBucket(start, cols)
		run.cur = b
	}
	b.count++
	b.last = t
	return b
}

// SetRollupResolutions overrides the rollup tiers the writer maintains
// (DefaultRollupResolutions otherwise). Call it before the first Append or
// Sync; no arguments disables rollups entirely. Resolutions must be whole
// positive seconds; they are sorted and deduplicated.
func (w *Writer) SetRollupResolutions(res ...time.Duration) error {
	if w.resumed {
		return errors.New("tsdb: SetRollupResolutions must be called before the first append")
	}
	secs := make([]int64, 0, len(res))
	for _, r := range res {
		if r <= 0 || r%time.Second != 0 {
			return errors.New("tsdb: rollup resolutions must be whole positive seconds")
		}
		secs = append(secs, int64(r/time.Second))
	}
	sort.Slice(secs, func(a, b int) bool { return secs[a] < secs[b] })
	out := secs[:0]
	for i, s := range secs {
		if i == 0 || s != secs[i-1] {
			out = append(out, s)
		}
	}
	w.rollupRes = out
	return nil
}

func (w *Writer) rollupEnabled() bool { return len(w.rollupRes) > 0 }

// replayRollups folds a committed raw block's points past the frontiers of
// the map's committed rollup tiers (each tier's newest flushed point) into
// the map's accumulators; see ensureResumed.
func replayRollups(accs []*rollupAcc, tiers []rollupTier, bm *blockMeta, db *decodedBlock) {
	cols := 2 * bm.links
	for pi, t := range db.times {
		for _, acc := range accs {
			if tier := tierOf(tiers, acc.res); tier != nil && t <= tier.maxLast {
				continue
			}
			acc.retire(bm.topoIndex)
			b := acc.addPoint(bm.topoIndex, t, cols)
			for c := 0; c < cols; c++ {
				b.observe(c, uint8(db.cols[c][pi]))
			}
		}
	}
}

// rollupAccs returns (creating on first use) the map's per-tier
// accumulators, in ascending resolution order.
func (w *Writer) rollupAccs(id wmap.MapID) []*rollupAcc {
	accs := w.accs[id]
	if accs == nil {
		accs = make([]*rollupAcc, len(w.rollupRes))
		for i, res := range w.rollupRes {
			accs[i] = &rollupAcc{res: res}
		}
		w.accs[id] = accs
	}
	return accs
}

// rollupTopoChanged reports whether the map's current run was built under
// a different topology than ti — the condition that closes the run and
// forces a fragment flush even when no raw block is open.
func (w *Writer) rollupTopoChanged(id wmap.MapID, ti int) bool {
	accs := w.accs[id]
	return len(accs) > 0 && accs[0].run != nil && accs[0].run.topoIndex != ti
}

// rollupAdd folds one appended snapshot into every tier of its map.
//
//wm:hotpath
func (w *Writer) rollupAdd(id wmap.MapID, ti int, t int64, links []wmap.Link) {
	for _, acc := range w.rollupAccs(id) {
		b := acc.addPoint(ti, t, 2*len(links))
		for i := range links {
			b.observe(2*i, uint8(links[i].LoadAB))
			b.observe(2*i+1, uint8(links[i].LoadBA))
		}
	}
}

// flushRollups is the per-map rollup flush event. It fires deterministically
// from the append sequence alone — right after any raw block of the map is
// flushed (rotation, Sync, Close) and on topology changes — so batch and
// live writers produce identical bytes. Runs closed by topology changes
// flush whole, including their partial last bucket; the current run flushes
// only once rollupFlushBuckets complete buckets have piled up, and then
// only the sealed ones. final (Close) flushes every sealed bucket and
// discards the partial current bucket — its points are replayed from raw
// blocks if the archive is ever resumed.
func (w *Writer) flushRollups(id wmap.MapID, final bool) error {
	for _, acc := range w.accs[id] {
		for _, run := range acc.done {
			if err := w.writeRollupRun(id, acc.res, run, true); err != nil {
				return err
			}
		}
		acc.done = acc.done[:0]
		run := acc.run
		if run == nil {
			continue
		}
		if final || len(run.sealed) >= rollupFlushBuckets {
			if err := w.writeRollupRun(id, acc.res, run, false); err != nil {
				return err
			}
			run.sealed = run.sealed[:0]
		}
	}
	return nil
}

// writeRollupRun encodes and writes one run's buckets as a rollup block
// and indexes it. includeCur adds the partial current bucket (topology
// change: the run can never grow again); otherwise only sealed buckets
// land and lastPoint records the last sealed point, so a resume replays
// the still-open bucket's raw points.
func (w *Writer) writeRollupRun(id wmap.MapID, res int64, run *rollupRun, includeCur bool) error {
	buckets := run.sealed
	if includeCur && run.cur != nil {
		buckets = make([]*rollupBucket, 0, len(run.sealed)+1)
		buckets = append(buckets, run.sealed...)
		buckets = append(buckets, run.cur)
	}
	if len(buckets) == 0 {
		return nil
	}
	B, cols := len(buckets), run.cols

	payload := make([]byte, 0, 64+B*(cols+4))
	payload = binary.AppendUvarint(payload, w.intern(string(id)))
	payload = binary.AppendUvarint(payload, uint64(res))
	payload = binary.AppendUvarint(payload, uint64(run.topoIndex))
	payload = binary.AppendUvarint(payload, uint64(buckets[0].start))
	payload = binary.AppendUvarint(payload, uint64(B))
	payload = binary.AppendUvarint(payload, uint64(cols/2))

	startCol := make([]byte, 0, B)
	for i := 1; i < B; i++ {
		startCol = binary.AppendUvarint(startCol, uint64((buckets[i].start-buckets[i-1].start)/res))
	}
	countCol := make([]byte, 0, B)
	for _, b := range buckets {
		countCol = binary.AppendUvarint(countCol, uint64(b.count))
	}
	sumCols := make([][]byte, cols)
	for c := 0; c < cols; c++ {
		buf := make([]byte, 0, B+1)
		buf = binary.AppendUvarint(buf, uint64(buckets[0].sums[c]))
		for i := 1; i < B; i++ {
			buf = binary.AppendVarint(buf, buckets[i].sums[c]-buckets[i-1].sums[c])
		}
		sumCols[c] = buf
	}
	payload = binary.AppendUvarint(payload, uint64(len(startCol)))
	payload = binary.AppendUvarint(payload, uint64(len(countCol)))
	for _, sc := range sumCols {
		payload = binary.AppendUvarint(payload, uint64(len(sc)))
	}
	payload = append(payload, startCol...)
	payload = append(payload, countCol...)
	for _, sc := range sumCols {
		payload = append(payload, sc...)
	}
	for c := 0; c < cols; c++ {
		for _, b := range buckets {
			payload = append(payload, b.mins[c])
		}
		for _, b := range buckets {
			payload = append(payload, b.maxs[c])
		}
	}
	f, err := w.writeFrame(payload)
	if err != nil {
		return err
	}
	w.rollups = append(w.rollups, rollupMeta{
		frame:       f,
		mapRef:      w.strIDs[string(id)],
		res:         res,
		topoIndex:   run.topoIndex,
		firstBucket: buckets[0].start,
		lastBucket:  buckets[B-1].start,
		lastPoint:   buckets[B-1].last,
		buckets:     B,
		links:       cols / 2,
	})
	return nil
}

// parseRollupMeta decodes and validates one rollup-index row; every field
// is cross-checked against the tables and the data section exactly like
// parseBlockMeta, so arbitrary bytes fail typed before any block read.
func (fd *footerData) parseRollupMeta(d *dec, dataEnd int64) (rollupMeta, error) {
	var raw [10]uint64
	if err := d.fields(raw[:]); err != nil {
		return rollupMeta{}, err
	}
	f, err := fd.frameRow(d, "rollup", raw[0], raw[2], raw[3], dataEnd)
	if err != nil {
		return rollupMeta{}, err
	}
	if err := fd.topoRow(d, "rollup", raw[4], raw[9]); err != nil {
		return rollupMeta{}, err
	}
	m := rollupMeta{frame: f, mapRef: raw[0], res: int64(raw[1]), topoIndex: int(raw[4]),
		firstBucket: int64(raw[5]), lastBucket: int64(raw[6]), lastPoint: int64(raw[7]),
		buckets: int(raw[8]), links: int(raw[9])}
	switch {
	case m.buckets < 1:
		return m, corruptf(d.abs(), "rollup block with %d buckets", m.buckets)
	case raw[1] == 0 || raw[1] > maxUnixSeconds:
		return m, corruptf(d.abs(), "rollup resolution %d invalid", raw[1])
	case raw[5] > maxUnixSeconds || raw[6] > maxUnixSeconds || raw[7] > maxUnixSeconds:
		return m, corruptf(d.abs(), "rollup time fields absurd")
	case m.firstBucket%m.res != 0 || m.lastBucket%m.res != 0 || m.lastBucket < m.firstBucket:
		return m, corruptf(d.abs(), "rollup bucket range [%d, %d] not aligned to resolution %d", m.firstBucket, m.lastBucket, m.res)
	case (m.lastBucket-m.firstBucket)/m.res < int64(m.buckets-1):
		return m, corruptf(d.abs(), "rollup claims %d buckets over span [%d, %d]", m.buckets, m.firstBucket, m.lastBucket)
	case m.lastPoint < m.lastBucket || m.lastPoint >= m.lastBucket+m.res:
		return m, corruptf(d.abs(), "rollup last point %d outside last bucket [%d, +%d)", m.lastPoint, m.lastBucket, m.res)
	}
	return m, nil
}

// decodedRollup is one rollup block's columns in memory; unwanted link
// columns stay nil. Immutable once returned — instances are shared by the
// block cache across concurrent queries.
type decodedRollup struct {
	meta   *rollupMeta
	starts []int64
	counts []int64
	sums   [][]int64 // 2L columns; only the wanted group is decoded
	mins   [][]uint8
	maxs   [][]uint8
}

// cost approximates the heap bytes a decoded rollup pins, for the cache.
func (ru *decodedRollup) cost() int64 {
	c := int64(len(ru.starts)+len(ru.counts)) * 8
	for _, col := range ru.sums {
		c += int64(len(col)) * 8
	}
	for _, col := range ru.mins {
		c += int64(len(col))
	}
	for _, col := range ru.maxs {
		c += int64(len(col))
	}
	return c + int64(len(ru.sums))*72 + 128
}

// maxRollupCount caps a bucket's claimed snapshot count: one snapshot per
// second of the bucket at most, and small enough that count*100 cannot
// overflow. Anything larger is corruption.
const maxRollupCount = int64(1) << 48

// decodeRollupAt reads and fully validates one rollup block. want selects
// load columns by column index (nil means all); unwanted sum/min/max
// columns are skipped without decoding. Aggregate invariants — positive
// counts, aligned ascending bucket starts, min ≤ max ≤ 100, and
// count·min ≤ sum ≤ count·max — are all enforced, so a flipped byte that
// survives the CRC cannot surface as a silently different series.
//
//wm:hotpath
func decodeRollupAt(r io.ReaderAt, size int64, meta *rollupMeta, want func(ci int) bool) (*decodedRollup, error) {
	d, buf, err := readFrame(r, size, meta.frame, "rollup block")
	defer putFrame(buf)
	if err != nil {
		return nil, err
	}
	if err := d.header("rollup block", meta.mapRef, uint64(meta.res), uint64(meta.topoIndex),
		uint64(meta.firstBucket), uint64(meta.buckets), uint64(meta.links)); err != nil {
		return nil, err
	}
	B, cols, res := meta.buckets, 2*meta.links, meta.res

	startLen, err := d.uvarint("start column length")
	if err != nil {
		return nil, err
	}
	countLen, err := d.uvarint("count column length")
	if err != nil {
		return nil, err
	}
	sumLens := make([]uint64, cols)
	var sumTot uint64
	for i := range sumLens {
		v, err := d.uvarint("sum column length")
		if err != nil {
			return nil, err
		}
		sumLens[i] = v
		sumTot += v
	}
	if startLen+countLen+sumTot+uint64(2*cols*B) != uint64(d.remaining()) {
		return nil, corruptf(d.abs(), "rollup directory claims %d bytes, %d remain",
			startLen+countLen+sumTot+uint64(2*cols*B), d.remaining())
	}
	if uint64(B-1) > startLen || uint64(B) > countLen {
		return nil, corruptf(d.abs(), "%d buckets cannot fit the start/count columns", B)
	}

	ru := &decodedRollup{meta: meta, starts: make([]int64, 0, B), counts: make([]int64, 0, B),
		sums: make([][]int64, cols), mins: make([][]uint8, cols), maxs: make([][]uint8, cols)}

	sb, err := d.bytes(int(startLen), "start column")
	if err != nil {
		return nil, err
	}
	sd := &dec{b: sb, off: d.abs() - int64(len(sb))}
	start := meta.firstBucket
	ru.starts = append(ru.starts, start)
	for i := 1; i < B; i++ {
		delta, err := sd.uvarint("bucket start delta")
		if err != nil {
			return nil, err
		}
		if delta == 0 || delta > uint64((maxUnixSeconds-start)/res) {
			return nil, corruptf(sd.abs(), "non-increasing or absurd bucket delta %d", delta)
		}
		start += int64(delta) * res
		ru.starts = append(ru.starts, start)
	}
	if sd.remaining() != 0 {
		return nil, corruptf(sd.abs(), "%d trailing bytes in start column", sd.remaining())
	}
	if start != meta.lastBucket {
		return nil, corruptf(sd.abs(), "rollup last bucket %d disagrees with index's %d", start, meta.lastBucket)
	}

	cb, err := d.bytes(int(countLen), "count column")
	if err != nil {
		return nil, err
	}
	cd := &dec{b: cb, off: d.abs() - int64(len(cb))}
	for i := 0; i < B; i++ {
		v, err := cd.uvarint("bucket count")
		if err != nil {
			return nil, err
		}
		if v == 0 || int64(v) > maxRollupCount {
			return nil, corruptf(cd.abs(), "bucket count %d invalid", v)
		}
		ru.counts = append(ru.counts, int64(v))
	}
	if cd.remaining() != 0 {
		return nil, corruptf(cd.abs(), "%d trailing bytes in count column", cd.remaining())
	}

	for ci := 0; ci < cols; ci++ {
		colB, err := d.bytes(int(sumLens[ci]), "sum column")
		if err != nil {
			return nil, err
		}
		if want != nil && !want(ci) {
			continue
		}
		if uint64(B) > sumLens[ci] {
			return nil, corruptf(d.abs(), "%d buckets cannot fit a %d-byte sum column", B, sumLens[ci])
		}
		scd := &dec{b: colB, off: d.abs() - int64(len(colB))}
		col := make([]int64, 0, B)
		v, err := scd.uvarint("sum value")
		if err != nil {
			return nil, err
		}
		s := int64(v)
		col = append(col, s)
		for i := 1; i < B; i++ {
			delta, err := scd.varint("sum delta")
			if err != nil {
				return nil, err
			}
			s += delta
			col = append(col, s)
		}
		if scd.remaining() != 0 {
			return nil, corruptf(scd.abs(), "%d trailing bytes in sum column", scd.remaining())
		}
		for i, sv := range col {
			if sv < 0 || sv > ru.counts[i]*100 {
				return nil, corruptf(scd.abs(), "bucket sum %d impossible for count %d", sv, ru.counts[i])
			}
		}
		ru.sums[ci] = col
	}

	for ci := 0; ci < cols; ci++ {
		minB, err := d.bytes(B, "min column")
		if err != nil {
			return nil, err
		}
		maxB, err := d.bytes(B, "max column")
		if err != nil {
			return nil, err
		}
		if want != nil && !want(ci) {
			continue
		}
		for i := 0; i < B; i++ {
			lo, hi := minB[i], maxB[i]
			if lo > hi || hi > 100 {
				return nil, corruptf(d.abs(), "bucket extremes [%d, %d] invalid", lo, hi)
			}
			if s := ru.sums[ci][i]; s < ru.counts[i]*int64(lo) || s > ru.counts[i]*int64(hi) {
				return nil, corruptf(d.abs(), "bucket sum %d outside count·[min, max]", s)
			}
		}
		ru.mins[ci] = append([]uint8(nil), minB...)
		ru.maxs[ci] = append([]uint8(nil), maxB...)
	}
	if d.remaining() != 0 {
		return nil, corruptf(d.abs(), "%d trailing bytes in rollup block", d.remaining())
	}
	return ru, nil
}
