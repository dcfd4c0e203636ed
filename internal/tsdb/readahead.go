package tsdb

import (
	"context"
	"runtime"

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

// defaultReadAheadWorkers is the worker count the API's scans and
// LinkColumnsContext use: one decoder per available core.
func defaultReadAheadWorkers() int {
	return runtime.GOMAXPROCS(0)
}
