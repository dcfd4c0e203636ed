package ordered

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// jitter sleeps a small random time so fetches finish out of order.
func jitter(seed int64, i int) {
	r := rand.New(rand.NewSource(seed + int64(i)))
	time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
}

// drain collects every item, failing on an error.
func drain(t *testing.T, p *Pool[int]) []int {
	t.Helper()
	var got []int
	for p.Next() {
		got = append(got, p.Value())
	}
	if err := p.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	return got
}

// waitGoroutines waits until the goroutine count is back at base, or fails.
// Stop has returned by then, but an exiting worker may not yet be gone.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines after stop, %d before: pool leaked", g, base)
	}
}

func TestRunDeliversInInputOrder(t *testing.T) {
	cases := []struct{ n, workers int }{
		{50, 1}, {50, 2}, {50, 8}, {3, 8}, {1, 4}, {0, 4},
	}
	for _, c := range cases {
		p := Run(context.Background(), c.n, c.workers, func(_, i int) (int, error) {
			jitter(int64(c.workers), i)
			return i * i, nil
		})
		got := drain(t, p)
		p.Stop()
		if len(got) != c.n {
			t.Fatalf("n=%d workers=%d: %d results", c.n, c.workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("n=%d workers=%d: position %d holds %d, want %d", c.n, c.workers, i, v, i*i)
			}
		}
	}
}

// TestRunBoundsReadAhead checks backpressure: no fetch starts more than
// workers+Slack items ahead of what the consumer has received.
func TestRunBoundsReadAhead(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var consumed, ahead atomic.Int64
		p := Run(context.Background(), 200, workers, func(_, i int) (int, error) {
			d := int64(i) - consumed.Load()
			for {
				hw := ahead.Load()
				if d <= hw || ahead.CompareAndSwap(hw, d) {
					break
				}
			}
			return i, nil
		})
		for p.Next() {
			time.Sleep(20 * time.Microsecond) // a slow consumer lets fetches pile up
			consumed.Add(1)
		}
		p.Stop()
		if hw := ahead.Load(); hw > int64(workers+Slack) {
			t.Errorf("workers=%d: a fetch ran %d items ahead of the consumer, bound %d", workers, hw, workers+Slack)
		}
	}
}

func TestRunStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		p := Run(context.Background(), 40, workers, func(_, i int) (int, error) {
			jitter(7, i)
			if i == 10 {
				return 0, boom
			}
			return i, nil
		})
		var got []int
		for p.Next() {
			got = append(got, p.Value())
		}
		if p.Next() {
			t.Errorf("workers=%d: item delivered after the error", workers)
		}
		p.Stop()
		if err := p.Err(); !errors.Is(err, boom) || len(got) != 10 {
			t.Errorf("workers=%d: %d items then err %v, want 10 items then boom", workers, len(got), err)
		}
	}
}

// TestRunStopWaitsForPool stops a pool mid-stream and after completion: no
// fetch runs once Stop has returned, and the pool's goroutines exit.
func TestRunStopWaitsForPool(t *testing.T) {
	base := runtime.NumGoroutine()
	var running atomic.Int64
	fetch := func(_, i int) (int, error) {
		running.Add(1)
		defer running.Add(-1)
		jitter(3, i)
		return i, nil
	}

	p := Run(context.Background(), 100, 4, fetch)
	for p.Next() {
		if p.Value() == 5 {
			break
		}
	}
	p.Stop()
	if r := running.Load(); r != 0 {
		t.Errorf("%d fetches still running after Stop", r)
	}
	p.Stop() // idempotent
	waitGoroutines(t, base)

	p = Run(context.Background(), 20, 4, fetch)
	drain(t, p)
	p.Stop()
	waitGoroutines(t, base)

	// A cancelled context ends the stream early, and Err reports it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p = Run(ctx, 100, 4, fetch)
	n := 0
	for p.Next() {
		if n++; n == 3 {
			cancel()
		}
	}
	p.Stop()
	if n >= 100 || !errors.Is(p.Err(), context.Canceled) {
		t.Errorf("cancelled pool delivered %d of 100 items, Err %v", n, p.Err())
	}
	waitGoroutines(t, base)
}

// TestRunWorkerIndexExclusive checks that each worker index belongs to one
// goroutine at a time, so per-worker state needs no lock. Run it under
// -race: the per-worker counters are plain ints.
func TestRunWorkerIndexExclusive(t *testing.T) {
	const workers = 4
	var busy [workers]atomic.Bool
	var counts [workers]int
	p := Run(context.Background(), 500, workers, func(w, i int) (int, error) {
		if w < 0 || w >= workers {
			return 0, errors.New("worker index out of range")
		}
		if !busy[w].CompareAndSwap(false, true) {
			return 0, errors.New("worker index used by two goroutines at once")
		}
		counts[w]++
		jitter(11, i)
		busy[w].Store(false)
		return i, nil
	})
	got := drain(t, p)
	p.Stop()
	total := 0
	for _, c := range counts {
		total += c
	}
	if len(got) != 500 || total != 500 {
		t.Errorf("%d results, %d fetches counted, want 500", len(got), total)
	}
}
