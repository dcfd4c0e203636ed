package tsdb

import (
	"context"
	"sort"
	"time"

	"ovhweather/internal/ordered"
	"ovhweather/internal/wmap"
)

// Cursor iterates one map's snapshots over [from, to] in chronological
// order:
//
//	cur := r.CursorParallel(ctx, id, from, to, workers)
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
// Blocks decode on the ordered pool: a bounded worker pool keeps the next
// few blocks decoding while the consumer folds the current one, and stops
// when the context is cancelled. Close releases the pool early; iterating
// to completion (Next returning false) closes implicitly, so Close only
// matters for abandoned iterations.
type Cursor struct {
	r *Reader
	// st is the committed state the cursor opened with. Pinning it here is
	// what gives cursors snapshot isolation on a live archive: a concurrent
	// Refresh swaps the reader's state pointer, but this cursor keeps
	// iterating exactly the blocks (all immutable) its snapshot indexed.
	st         *readerState
	ids        []int // overlapping block indexes, chronological
	fromU, toU int64
	db         *decodedBlock
	pi         int
	vdb        *decodedBlock // block and point Next advanced to;
	vpi        int           // materialized lazily by Map or MapView
	scratch    *wmap.Map
	err        error

	ctx     context.Context
	workers int
	pool    *ordered.Pool[*decodedBlock] // nil until the first Next
	done    bool
}

// CursorParallel positions a cursor that decodes blocks on the ordered
// pool with the given worker count (at least one decoder, overlapping the
// consumer) and stops when ctx is cancelled (Err() then returns
// ctx.Err()). The block seek is O(log n) in the map's block count.
func (r *Reader) CursorParallel(ctx context.Context, id wmap.MapID, from, to time.Time, workers int) *Cursor {
	fromU, toU := rangeBounds(from, to)
	st := r.st()
	return &Cursor{
		r:       r,
		st:      st,
		ids:     st.blockRange(id, fromU, toU),
		fromU:   fromU,
		toU:     toU,
		ctx:     ctx,
		workers: workers,
	}
}

// nextBlock receives the next decoded block from the pool, starting it on
// first use. ok is false at the end of the range, on error or on
// cancellation (recorded in c.err).
func (c *Cursor) nextBlock() (ok bool) {
	if c.pool == nil {
		c.pool = c.r.startReadAhead(c.ctx, c.st, c.ids, func(int) int { return allColumns }, c.workers)
	}
	if !c.pool.Next() {
		c.err = c.pool.Err()
		return false
	}
	c.db = c.pool.Value()
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

// Close stops the cursor and returns once the pool's workers have exited.
// Safe to call multiple times and after Next returned false; required only
// when abandoning a cursor mid-iteration.
func (c *Cursor) Close() {
	c.done = true
	c.db = nil
	if c.pool != nil {
		c.pool.Stop()
	}
}

// MapView returns the snapshot Next advanced to, backed by cursor-owned
// scratch storage: zero steady-state allocations, built for full-corpus
// folds that read each snapshot and move on. The returned map (and its
// Nodes/Links slices) is only valid until the next call to Next or
// MapView and must not be mutated or retained — Clone it for an owned
// copy.
func (c *Cursor) MapView() *wmap.Map {
	if c.scratch == nil {
		c.scratch = &wmap.Map{}
	}
	materializeInto(c.st, c.vdb, c.vpi, c.scratch)
	return c.scratch
}

// Err returns the first error the iteration hit — a decode failure, or the
// context's error when the cursor was cancelled.
func (c *Cursor) Err() error { return c.err }
