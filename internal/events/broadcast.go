package events

import "sync"

// Broadcaster fans live events out to many subscribers. Publish never
// blocks: each subscriber owns a bounded queue, and a subscriber that
// falls behind loses events (counted, per subscriber and globally) rather
// than stalling the ingest path. Subscribers that keep up see every
// published event in publish order.
//
// Every field below mu — the subscriber set and all counters, including
// the per-subscriber ones reached through it — is guarded by mu; the
// wmlint sharded analyzer enforces the locking and forbids value copies.
//
//wm:sharded
type Broadcaster struct {
	mu        sync.Mutex
	subs      map[*Subscriber]struct{}
	published uint64
	dropped   uint64
	perType   [maxType + 1]uint64
	closed    bool
}

// Subscriber is one registered consumer. Receive from C; Close
// unregisters and closes the channel.
type Subscriber struct {
	b       *Broadcaster
	ch      chan Event
	dropped uint64 // guarded by b.mu
	closed  bool   // guarded by b.mu
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[*Subscriber]struct{})}
}

// Subscribe registers a consumer with the given queue capacity (minimum 1).
// The subscription sees only events published after it.
func (b *Broadcaster) Subscribe(buf int) *Subscriber {
	if buf < 1 {
		buf = 1
	}
	s := &Subscriber{b: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	if b.closed {
		s.closed = true
		close(s.ch)
	} else {
		b.subs[s] = struct{}{}
	}
	b.mu.Unlock()
	return s
}

// C is the subscriber's event channel. It is closed by Close (or by
// Broadcaster.Close); a closed channel means the subscription ended, not
// that events stopped happening.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Close unregisters the subscriber and closes its channel. Safe to call
// twice; safe to call while the broadcaster publishes.
func (s *Subscriber) Close() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.b.subs, s)
	close(s.ch)
}

// Publish delivers the events to every current subscriber, dropping
// (and counting) per subscriber when a queue is full. It never blocks.
func (b *Broadcaster) Publish(evs ...Event) {
	if len(evs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, ev := range evs {
		b.published++
		if ev.Type.Valid() {
			b.perType[ev.Type]++
		}
		for s := range b.subs {
			select {
			case s.ch <- ev:
			default:
				s.dropped++
				b.dropped++
			}
		}
	}
}

// Close ends the broadcaster: every subscriber channel is closed and
// future Publish and Subscribe calls become no-ops.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		s.closed = true
		close(s.ch)
		delete(b.subs, s)
	}
}

// BroadcastStats is a point-in-time counter snapshot, shaped for JSON.
type BroadcastStats struct {
	Subscribers int               `json:"subscribers"`
	Published   uint64            `json:"published"`
	Dropped     uint64            `json:"dropped"`
	PerType     map[string]uint64 `json:"per_type"`
}

// Stats snapshots the counters. PerType omits types that never fired.
func (b *Broadcaster) Stats() BroadcastStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BroadcastStats{
		Subscribers: len(b.subs),
		Published:   b.published,
		Dropped:     b.dropped,
		PerType:     make(map[string]uint64),
	}
	for t := TypeChurn; t <= maxType; t++ {
		if n := b.perType[t]; n > 0 {
			st.PerType[t.String()] = n
		}
	}
	return st
}
