package tsdb

import (
	"context"
	"runtime"
)

// The read-ahead pipeline: a bounded worker pool decodes the next few
// blocks of a scan while the consumer is still folding the current one, so
// full-corpus analyses use every core without reordering the stream.
// Results are delivered strictly in input order, which is what keeps the
// parallel path byte-identical to the sequential one (proven by
// TestArchiveEquivalence and TestCursorParallelMatchesSequential).

// fetchResult is one decoded value (raw block or rollup block) or the
// error that stopped its decode.
type fetchResult struct {
	v   cacheValue
	err error
}

// readAheadSlack is how many decoded blocks may sit finished ahead of the
// consumer beyond the worker count; it bounds pipeline memory to
// (workers + readAheadSlack) blocks.
const readAheadSlack = 2

// startReadAhead decodes blocks ids[i] (with column group group(i)) on up
// to workers goroutines and returns a channel delivering the results in
// ids order; see runReadAhead for the pipeline contract.
//
//wm:hotpath
func (r *Reader) startReadAhead(ctx context.Context, st *readerState, ids []int, group func(i int) int, workers int) <-chan fetchResult {
	return runReadAhead(ctx, len(ids), workers, func(i int) (cacheValue, error) {
		return r.block(st, ids[i], group(i))
	})
}

// runReadAhead fetches items 0..n-1 on up to workers goroutines and
// returns a channel delivering the results in input order. The pipeline
// stops when ctx is cancelled: every goroutine selects on ctx.Done, so a
// disconnected client or an abandoned cursor unwinds the pool without
// leaking. When the returned channel closes, the consumer must check
// ctx.Err() to tell natural completion from cancellation. After an error
// result the channel closes — later items are not delivered.
//
//wm:hotpath
func runReadAhead(ctx context.Context, n, workers int, fetch func(i int) (cacheValue, error)) <-chan fetchResult {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	// Per-slot buffered channels restore order: worker i publishes into
	// slots[i] (capacity 1, so the send never blocks), the forwarder drains
	// slots in sequence. sem caps how far decoding may run ahead.
	slots := make([]chan fetchResult, n)
	for i := range slots {
		slots[i] = make(chan fetchResult, 1)
	}
	jobs := make(chan int)
	sem := make(chan struct{}, workers+readAheadSlack)

	go func() { // dispatcher
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				v, err := fetch(i)
				//lint:ignore wmlint/ctxflow slots[i] has capacity 1 and receives exactly this one send
				slots[i] <- fetchResult{v: v, err: err}
			}
		}()
	}

	out := make(chan fetchResult)
	go func() { // forwarder: order restoration and backpressure release
		defer close(out)
		for i := range slots {
			var res fetchResult
			select {
			case res = <-slots[i]:
			case <-ctx.Done():
				return
			}
			select {
			case out <- res:
			case <-ctx.Done():
				return
			}
			//lint:ignore wmlint/ctxflow sem holds a token whenever slot i has delivered, so this never blocks
			<-sem
			if res.err != nil {
				return
			}
		}
	}()
	return out
}

// defaultReadAheadWorkers is the worker count the API's scans and
// LinkColumnsContext use: one decoder per available core.
func defaultReadAheadWorkers() int {
	return runtime.GOMAXPROCS(0)
}
