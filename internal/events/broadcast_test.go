package events

import (
	"sync"
	"testing"

	"ovhweather/internal/wmap"
)

// dropped returns how many events s lost to a full queue.
func dropped(s *Subscriber) uint64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.dropped
}

func TestBroadcastDelivery(t *testing.T) {
	b := NewBroadcaster()
	s1 := b.Subscribe(8)
	s2 := b.Subscribe(8)
	defer s1.Close()
	defer s2.Close()

	evs := []Event{
		{Map: wmap.Europe, Type: TypeCongestionOnset, A: "a", B: "b", Load: 61},
		{Map: wmap.Europe, Type: TypeCongestionClear, A: "a", B: "b", Load: 40},
	}
	b.Publish(evs...)
	for _, s := range []*Subscriber{s1, s2} {
		for i, want := range evs {
			got := <-s.C()
			if got != want {
				t.Fatalf("event %d = %+v, want %+v", i, got, want)
			}
		}
	}
	st := b.Stats()
	if st.Subscribers != 2 || st.Published != 2 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.PerType["congestion-onset"] != 1 || st.PerType["congestion-clear"] != 1 {
		t.Fatalf("per-type %+v", st.PerType)
	}
}

func TestBroadcastSlowConsumerDrops(t *testing.T) {
	b := NewBroadcaster()
	slow := b.Subscribe(1)
	fast := b.Subscribe(16)
	defer fast.Close()

	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: TypeChurn, Delta: i})
	}
	// The slow queue holds one event; nine were dropped for it, none for
	// the fast one.
	if got := dropped(slow); got != 9 {
		t.Fatalf("slow dropped %d, want 9", got)
	}
	if got := dropped(fast); got != 0 {
		t.Fatalf("fast dropped %d, want 0", got)
	}
	st := b.Stats()
	if st.Dropped != 9 || st.Published != 10 {
		t.Fatalf("stats %+v", st)
	}
	first := <-slow.C()
	if first.Delta != 0 {
		t.Fatalf("slow consumer's surviving event = %+v, want the first", first)
	}
	slow.Close()
	if _, ok := <-slow.C(); ok {
		t.Fatal("closed subscriber channel still open")
	}
}

func TestBroadcastCloseUnblocksSubscribers(t *testing.T) {
	b := NewBroadcaster()
	s := b.Subscribe(4)
	done := make(chan struct{})
	go func() {
		for range s.C() {
		}
		close(done)
	}()
	b.Publish(Event{Type: TypeChurn})
	b.Close()
	<-done
	// After Close everything is a no-op.
	b.Publish(Event{Type: TypeChurn})
	s2 := b.Subscribe(1)
	if _, ok := <-s2.C(); ok {
		t.Fatal("subscribe after close returned a live channel")
	}
	s.Close()
	s2.Close()
}

// TestBroadcast32Goroutines drives one broadcaster from 32 goroutines in
// four mixed roles — publishers, stats readers, subscribe/close churners,
// and drop counters — as a pure data-race probe for the mu-guarded
// counter state (the invariant wmlint's sharded analyzer enforces
// statically; this is its dynamic twin under -race).
func TestBroadcast32Goroutines(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 100
	)
	b := NewBroadcaster()
	defer b.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0: // publisher
				for i := 0; i < rounds; i++ {
					b.Publish(Event{Type: TypeChurn, Ordinal: g, Delta: i})
				}
			case 1: // stats reader
				for i := 0; i < rounds; i++ {
					st := b.Stats()
					if st.Dropped > st.Published*goroutines {
						t.Errorf("stats impossible: %+v", st)
						return
					}
				}
			case 2: // subscribe/close churner
				for i := 0; i < rounds; i++ {
					s := b.Subscribe(1)
					select {
					case <-s.C():
					default:
					}
					s.Close()
				}
			case 3: // drop counter on a tiny queue
				s := b.Subscribe(1)
				defer s.Close()
				for i := 0; i < rounds; i++ {
					_ = dropped(s)
				}
			}
		}(g)
	}
	wg.Wait()

	if st := b.Stats(); st.Published != 8*rounds {
		t.Fatalf("published %d, want %d", st.Published, 8*rounds)
	}
}

// TestBroadcastConcurrent hammers one broadcaster with concurrent
// publishers, subscribers that keep up, and churning short-lived
// subscribers, under -race. Keep-up subscribers must see every event
// published while they were registered, in order.
func TestBroadcastConcurrent(t *testing.T) {
	const (
		publishers = 4
		perPub     = 200
		keepers    = 8
		churners   = 8
	)
	b := NewBroadcaster()

	// Keep-up subscribers registered before any publish: they must
	// receive everything.
	var wg sync.WaitGroup
	counts := make([]int, keepers)
	for i := 0; i < keepers; i++ {
		s := b.Subscribe(publishers*perPub + 1)
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			for range s.C() {
				counts[i]++
			}
		}(i, s)
	}
	// Churners subscribe and unsubscribe mid-stream.
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	for i := 0; i < churners; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Select against stop while waiting: a churner that
				// subscribes after the last publish would otherwise
				// block on a channel nothing will ever send to.
				s := b.Subscribe(1)
				select {
				case <-stop:
					s.Close()
					return
				case <-s.C():
				}
				s.Close()
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Event{Type: TypeChurn, Ordinal: p, Delta: i})
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	cwg.Wait()
	b.Close()
	wg.Wait()

	for i, n := range counts {
		if n != publishers*perPub {
			t.Fatalf("keep-up subscriber %d saw %d of %d events", i, n, publishers*perPub)
		}
	}
	if st := b.Stats(); st.Published != publishers*perPub {
		t.Fatalf("published %d, want %d", st.Published, publishers*perPub)
	}
}
