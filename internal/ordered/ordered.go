// Package ordered is the pipeline's one concurrency primitive: a bounded
// worker pool that fetches items 0..n-1 concurrently and delivers the
// results strictly in input order. Every stage that is parallel per item
// but consumed in time order runs on it — SVG→YAML processing and the YAML
// walk in dataset, block and rollup read-ahead in tsdb — so a parallel run
// is byte-identical to a sequential one while using every core.
package ordered

import (
	"context"
	"sync"
	"sync/atomic"
)

// Slack is how many finished results may wait for the consumer beyond the
// worker count: fetching never runs more than workers+Slack items ahead of
// the consumer, which bounds pool memory to that many results.
const Slack = 2

// result is one fetched value or the error that stopped its fetch.
type result[T any] struct {
	v   T
	err error
}

// Pool is a running Run. Its consumer iterates it like a cursor:
//
//	p := ordered.Run(ctx, n, workers, fetch)
//	defer p.Stop()
//	for p.Next() {
//		use(p.Value())
//	}
//	return p.Err()
type Pool[T any] struct {
	parent context.Context // the caller's context, for Err
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	claim  atomic.Int64 // next item index a worker takes

	// Item i publishes into slots[i%len(slots)]. sem holds one token per
	// item claimed but not yet delivered, so item i is only claimed once
	// item i-len(slots) has left its slot: every slot is empty when its
	// next item's send happens, and the capacity-1 send never blocks.
	slots []chan result[T]
	sem   chan struct{}

	n, next int // item count; index of the next item to deliver
	v       T
	err     error
}

// Run fetches items 0..n-1 on up to workers goroutines and returns the
// pool that delivers them in input order.
//
// fetch(w, i) fetches item i on worker w. Each w in [0, min(workers, n))
// belongs to one goroutine for the whole run, so callers keep per-worker
// state in a slice indexed by w without locking.
//
// The consumer must call Stop, which cancels the pool and returns once
// every worker has exited, so no fetch runs after it; callers defer it.
//
//wm:hotpath
func Run[T any](ctx context.Context, n, workers int, fetch func(w, i int) (T, error)) *Pool[T] {
	p := &Pool[T]{parent: ctx, n: n}
	p.ctx, p.cancel = context.WithCancel(ctx)
	if n <= 0 {
		return p
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	window := workers + Slack
	if window > n {
		window = n
	}
	p.slots = make([]chan result[T], window)
	for k := range p.slots {
		p.slots[k] = make(chan result[T], 1)
	}
	p.sem = make(chan struct{}, window)

	ctx = p.ctx
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for {
				// Take a token before claiming an index: the token is what
				// lets the claimed item's slot be reused safely.
				select {
				case p.sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				i := int(p.claim.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := fetch(w, i)
				//lint:ignore wmlint/ctxflow the claim order guarantees slots[i%window] is empty, so this send never blocks
				p.slots[i%window] <- result[T]{v: v, err: err}
			}
		}()
	}
	return p
}

// Next waits for the next item in input order and reports whether there is
// one. It returns false after the last item, after an item whose fetch
// failed (Err returns that error, and later items are not delivered), or
// once the context is cancelled.
func (p *Pool[T]) Next() bool {
	if p.err != nil || p.next >= p.n {
		return false
	}
	select {
	case res := <-p.slots[p.next%len(p.slots)]:
		<-p.sem // the delivered item's token: never blocks
		p.next++
		if res.err != nil {
			p.err = res.err
			p.cancel()
			return false
		}
		p.v = res.v
		return true
	case <-p.ctx.Done():
		return false
	}
}

// Value returns the item Next advanced to.
func (p *Pool[T]) Value() T { return p.v }

// Err returns the fetch error that stopped delivery, or else the caller's
// context error, so a cancelled run never reads as complete.
func (p *Pool[T]) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.parent.Err()
}

// Stop cancels the pool and returns once every worker has exited. Calling
// it more than once is harmless.
func (p *Pool[T]) Stop() {
	p.cancel()
	p.wg.Wait()
}
