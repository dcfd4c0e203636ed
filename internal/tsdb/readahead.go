package tsdb

import (
	"context"
	"runtime"
	"sort"

	"ovhweather/internal/ordered"
)

// startReadAhead decodes blocks ids[i] (with column group group(i)) on the
// ordered pool — the next few blocks of a scan decode while the consumer
// is still folding the current one — and delivers them in ids order. The
// caller defers the pool's Stop.
//
//wm:hotpath
func (r *Reader) startReadAhead(ctx context.Context, st *readerState, ids []int, group func(i int) int, workers int) *ordered.Pool[*decodedBlock] {
	return ordered.Run(ctx, len(ids), workers, func(_, i int) (*decodedBlock, error) {
		return r.block(st, ids[i], group(i))
	})
}

// scanBlocks is the ordered block scan behind GridColumns,
// LinkColumnsContext and the grid engine's raw leg: blocks ids[i] (with
// column group group(i)) decode on the read-ahead pool, one decoder per
// core, and fn runs on the calling goroutine in ids order with block i's
// points trimmed to [fromU, toU] as db.times[lo:hi]. Blocks with no point
// in the range are skipped; an empty ids returns ctx.Err().
//
//wm:hotpath
func (r *Reader) scanBlocks(ctx context.Context, st *readerState, ids []int, group func(i int) int, fromU, toU int64, fn func(i int, db *decodedBlock, lo, hi int) error) error {
	if len(ids) == 0 {
		return ctx.Err()
	}
	pool := r.startReadAhead(ctx, st, ids, group, runtime.GOMAXPROCS(0))
	defer pool.Stop()
	for i := 0; pool.Next(); i++ {
		db := pool.Value()
		lo := sort.Search(len(db.times), func(k int) bool { return db.times[k] >= fromU })
		hi := sort.Search(len(db.times), func(k int) bool { return db.times[k] > toU })
		if lo < hi {
			if err := fn(i, db, lo, hi); err != nil {
				return err
			}
		}
	}
	return pool.Err()
}
