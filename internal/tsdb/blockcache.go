package tsdb

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"ovhweather/internal/wmap"
)

// DefaultBlockCacheBytes is the byte budget wmserve and wmanalyze give a
// BlockCache unless overridden with -block-cache.
const DefaultBlockCacheBytes = 64 << 20

// cacheShards is the number of independently locked LRU shards. Sixteen
// keeps lock contention negligible at the request concurrency the API
// sees while wasting little budget granularity.
const cacheShards = 16

// cacheKey identifies one decoded-block variant: the owning archive (by
// the reader's open-time fingerprint, so one cache may serve several
// readers), the block kind (raw or rollup — each indexes its own footer
// table), the block index, and the column group — allColumns for a fully
// decoded block, otherwise the link index whose two directed columns were
// decoded. The archive component deliberately does NOT roll with Refresh:
// a live archive only ever appends, so block index bi keeps naming the same
// immutable bytes as the archive grows, and entries decoded before a
// refresh stay valid after it (Refresh rejects non-extensions with
// ErrArchiveReplaced precisely to protect this invariant).
type cacheKey struct {
	arch  uint64
	kind  uint8
	block int
	group int
}

// cacheKey.kind values: the raw block index and the rollup index are
// separate footer tables, so the same block number names different bytes.
const (
	kindRaw    uint8 = 0
	kindRollup uint8 = 1
	kindEvents uint8 = 2
)

// allColumns is the cacheKey.group value for a block decoded in full.
const allColumns = -1

// cacheValue is what the cache stores: an immutable decoded raw block or
// rollup block that can report the heap bytes it pins.
type cacheValue interface {
	cost() int64
}

// shard spreads keys over the shard array with a mixed multiplicative
// hash; block and group are offset so the common small values diverge.
func (k cacheKey) shard() uint64 {
	h := (k.arch + uint64(k.kind)) * 0x9e3779b97f4a7c15
	h ^= uint64(k.block+1) * 0xbf58476d1ce4e5b9
	h ^= uint64(k.group+2) * 0x94d049bb133111eb
	h ^= h >> 29
	return h % cacheShards
}

// BlockCache is a sharded LRU over immutable decoded blocks, bounded by a
// byte budget. Concurrent requests for the same cold key are deduplicated:
// one caller decodes, the rest wait for its result (singleflight), so a
// dashboard stampede on a cold block costs one decode, not N.
//
// Sharding is for lock spreading only; the byte budget is global. A fully
// decoded block of a realistic corpus runs to several megabytes, so a
// per-shard budget would either reject large entries or demand a budget 16x
// the working set. Inserts account globally and evict across shards.
//
// Everything stored in the cache is shared between callers and must never
// be mutated — decodedBlock is immutable after decode, and materialize
// clones before handing snapshots to callers.
type BlockCache struct {
	budget int64
	shards [cacheShards]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	dedups    atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// cacheShard is one independently locked LRU shard. Everything below mu
// is guarded by it; wmlint's sharded analyzer enforces both the locking
// and that shards are never copied out of the BlockCache array.
//
//wm:sharded
type cacheShard struct {
	mu     sync.Mutex
	lru    list.List // front = most recently used; values are *cacheEntry
	byKey  map[cacheKey]*list.Element
	flight map[cacheKey]*cacheFlight
	bytes  int64
}

type cacheEntry struct {
	key  cacheKey
	val  cacheValue
	cost int64
}

// cacheFlight is one in-progress decode; followers block on done and then
// read val/err, which are written exactly once before the close.
type cacheFlight struct {
	done chan struct{}
	val  cacheValue
	err  error
}

// NewBlockCache builds a cache bounded by budget bytes. A budget of 0 or
// less returns nil, which every user treats as "caching disabled".
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	c := &BlockCache{budget: budget}
	for i := range c.shards {
		c.shards[i].byKey = make(map[cacheKey]*list.Element)
		c.shards[i].flight = make(map[cacheKey]*cacheFlight)
	}
	return c
}

// get returns the cached value for k, if present, promoting it to most
// recently used. It never waits on an in-progress decode and records no
// miss when absent — the probe callers use to try a broader key first.
func (c *BlockCache) get(k cacheKey) (cacheValue, bool) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	el, ok := s.byKey[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*cacheEntry).val, true
}

// getOrLoad returns the cached value for k or invokes load exactly once
// across all concurrent callers of the same key, caching the result.
// Errors are returned to every waiter but never cached, so a transient
// read failure does not poison the key.
func (c *BlockCache) getOrLoad(k cacheKey, load func() (cacheValue, error)) (cacheValue, error) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	if el, ok := s.byKey[k]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, nil
	}
	if f, ok := s.flight[k]; ok {
		s.mu.Unlock()
		c.dedups.Add(1)
		<-f.done
		return f.val, f.err
	}
	f := &cacheFlight{done: make(chan struct{})}
	s.flight[k] = f
	s.mu.Unlock()

	c.misses.Add(1)
	f.val, f.err = load()

	s.mu.Lock()
	delete(s.flight, k)
	inserted := f.err == nil && c.insertLocked(s, k, f.val)
	s.mu.Unlock()
	close(f.done)
	if inserted {
		c.evictOver(k.shard())
	}
	return f.val, f.err
}

// insertLocked adds a decoded value under k and reports whether it was
// cached. Values larger than the whole budget are served but never cached —
// caching one would evict everything for a single-use entry. Eviction back
// under budget happens in evictOver, after the shard lock is released.
func (c *BlockCache) insertLocked(s *cacheShard, k cacheKey, v cacheValue) bool {
	cost := v.cost()
	if cost > c.budget {
		return false
	}
	s.byKey[k] = s.lru.PushFront(&cacheEntry{key: k, val: v, cost: cost})
	s.bytes += cost
	c.bytes.Add(cost)
	c.entries.Add(1)
	return true
}

// evictOver walks the shards starting after the one that just grew,
// dropping cold-end entries until the global byte budget holds again.
// There is no global LRU ordering across shards — keys hash uniformly, so
// evicting each shard's own cold end approximates one. Locks are taken one
// shard at a time, never nested.
func (c *BlockCache) evictOver(from uint64) {
	for i := uint64(0); i < cacheShards && c.bytes.Load() > c.budget; i++ {
		s := &c.shards[(from+1+i)%cacheShards]
		s.mu.Lock()
		for c.bytes.Load() > c.budget {
			el := s.lru.Back()
			if el == nil {
				break
			}
			e := el.Value.(*cacheEntry)
			s.lru.Remove(el)
			delete(s.byKey, e.key)
			s.bytes -= e.cost
			c.bytes.Add(-e.cost)
			c.entries.Add(-1)
			c.evictions.Add(1)
		}
		s.mu.Unlock()
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness, exposed
// on GET /api/v1/stats and through wmserve's expvar.
type CacheStats struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	InflightDedups int64 `json:"inflight_dedups"`
	Entries        int64 `json:"entries"`
	Bytes          int64 `json:"bytes"`
	Budget         int64 `json:"budget"`
}

// Stats reads the counters. Nil-safe: a disabled cache reports zeros.
func (c *BlockCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		InflightDedups: c.dedups.Load(),
		Entries:        c.entries.Load(),
		Bytes:          c.bytes.Load(),
		Budget:         c.budget,
	}
}

// cost approximates the heap bytes a decoded block pins: the time column,
// the load slab its decoded columns are carved from (their lengths sum to
// the slab's), and a fixed overhead for the struct and slice headers.
func (db *decodedBlock) cost() int64 {
	c := int64(len(db.times)) * 8
	for _, col := range db.cols {
		c += int64(len(col)) * int64(unsafe.Sizeof(wmap.Load(0)))
	}
	return c + int64(len(db.cols))*24 + 128
}
