package tsdb

import (
	"context"
	"sort"
	"time"

	"ovhweather/internal/wmap"
)

// Cursor iterates one map's snapshots over [from, to] in chronological
// order:
//
//	cur := r.Cursor(id, from, to)
//	defer cur.Close()
//	for cur.Next() {
//		m := cur.Map()
//		...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Zero from/to mean unbounded; both ends are inclusive, matching the
// dataset walk's from/to filter. Each Map() is freshly materialized and may
// be retained by the caller; MapView() instead reuses cursor-owned scratch
// for allocation-free folds.
//
// A plain Cursor decodes blocks one at a time on the calling goroutine.
// CursorParallel instead decodes on the read-ahead pipeline — a bounded
// worker pool keeps the next few blocks decoding while the consumer folds
// the current one — and stops when the context is cancelled. Both paths
// yield byte-identical snapshots in the same order.
// Close releases the pipeline early; iterating to completion (Next
// returning false) closes implicitly, so Close only matters for abandoned
// iterations.
type Cursor struct {
	r *Reader
	// st is the committed state the cursor opened with. Pinning it here is
	// what gives cursors snapshot isolation on a live archive: a concurrent
	// Refresh swaps the reader's state pointer, but this cursor keeps
	// iterating exactly the blocks (all immutable) its snapshot indexed.
	st         *readerState
	ids        []int // overlapping block indexes, chronological
	fromU, toU int64
	bi         int
	db         *decodedBlock
	pi         int
	vdb        *decodedBlock // block and point Next advanced to;
	vpi        int           // materialized lazily by Map or MapView
	scratch    *wmap.Map
	err        error

	// pipeline state; nil ctx means sequential mode
	ctx     context.Context
	cancel  context.CancelFunc
	out     <-chan fetchResult
	workers int
	done    bool
}

// Cursor positions a new sequential cursor; the block seek is O(log n) in
// the map's block count.
func (r *Reader) Cursor(id wmap.MapID, from, to time.Time) *Cursor {
	fromU, toU := rangeBounds(from, to)
	st := r.st()
	return &Cursor{
		r:     r,
		st:    st,
		ids:   st.blockRange(id, fromU, toU),
		fromU: fromU,
		toU:   toU,
	}
}

// CursorParallel positions a cursor that decodes blocks on the read-ahead
// pipeline with the given worker count and stops when ctx is cancelled
// (Err() then returns ctx.Err()); workers <= 1 still runs the pipeline (one
// decoder overlapping the consumer) unless the range spans a single block,
// which decodes inline.
func (r *Reader) CursorParallel(ctx context.Context, id wmap.MapID, from, to time.Time, workers int) *Cursor {
	c := r.Cursor(id, from, to)
	if workers < 1 {
		workers = 1
	}
	if len(c.ids) > 1 {
		c.ctx = ctx
		c.workers = workers
	}
	return c
}

// nextBlock produces the next decoded block, from the pipeline in parallel
// mode or inline otherwise. ok is false at the end of the range or on
// error (recorded in c.err).
func (c *Cursor) nextBlock() (ok bool) {
	if c.ctx != nil {
		if c.out == nil {
			ctx, cancel := context.WithCancel(c.ctx)
			c.cancel = cancel
			c.out = c.r.startReadAhead(ctx, c.st, c.ids, func(int) int { return allColumns }, c.workers)
		}
		res, open := <-c.out
		if !open {
			// Closed without a result: either the range is exhausted or the
			// context was cancelled mid-stream.
			c.err = c.ctx.Err()
			return false
		}
		if res.err != nil {
			c.err = res.err
			return false
		}
		c.db = res.v.(*decodedBlock)
		return true
	}
	if c.bi >= len(c.ids) {
		return false
	}
	db, err := c.r.block(c.st, c.ids[c.bi], allColumns)
	if err != nil {
		c.err = err
		return false
	}
	c.bi++
	c.db = db
	return true
}

// Next advances to the next snapshot, reporting false at the end of the
// range or on error.
func (c *Cursor) Next() bool {
	if c.err != nil || c.done {
		return false
	}
	for {
		if c.db == nil {
			if !c.nextBlock() {
				c.Close()
				return false
			}
			c.pi = sort.Search(len(c.db.times), func(i int) bool { return c.db.times[i] >= c.fromU })
		}
		if c.pi >= len(c.db.times) {
			c.db = nil
			continue
		}
		if c.db.times[c.pi] > c.toU {
			// Later blocks are later still: the range is exhausted.
			c.Close()
			return false
		}
		c.vdb, c.vpi = c.db, c.pi
		c.pi++
		return true
	}
}

// Close stops the cursor, cancelling the read-ahead pipeline so its
// workers exit. Safe to call multiple times and after Next returned
// false; required only when abandoning a parallel cursor mid-iteration.
func (c *Cursor) Close() {
	c.done = true
	c.db = nil
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

// Map returns the snapshot Next advanced to, freshly materialized: the
// caller owns it and may retain or mutate it.
func (c *Cursor) Map() *wmap.Map { return materialize(c.st, c.vdb, c.vpi) }

// MapView returns the snapshot Next advanced to, backed by cursor-owned
// scratch storage: zero steady-state allocations, built for full-corpus
// folds that read each snapshot and move on. The returned map (and its
// Nodes/Links slices) is only valid until the next call to Next or
// MapView and must not be mutated or retained — use Map for an owned copy.
func (c *Cursor) MapView() *wmap.Map {
	if c.scratch == nil {
		c.scratch = &wmap.Map{}
	}
	materializeInto(c.st, c.vdb, c.vpi, c.scratch)
	return c.scratch
}

// Err returns the first error the iteration hit — a decode failure, or the
// context's error when a parallel cursor was cancelled.
func (c *Cursor) Err() error { return c.err }
