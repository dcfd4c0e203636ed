package tsdb

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// fakeBlock builds a small decodedBlock whose cost is deterministic.
func fakeBlock(points int) *decodedBlock {
	db := &decodedBlock{times: make([]int64, points), cols: make([][]wmap.Load, 2)}
	for i := range db.cols {
		db.cols[i] = make([]wmap.Load, points)
	}
	return db
}

func TestBlockCacheDisabled(t *testing.T) {
	if c := NewBlockCache(0); c != nil {
		t.Errorf("NewBlockCache(0) = %v, want nil (disabled)", c)
	}
	if c := NewBlockCache(-5); c != nil {
		t.Errorf("NewBlockCache(-5) = %v, want nil (disabled)", c)
	}
	var c *BlockCache
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zeros", s)
	}
}

func TestBlockCacheHitMissAndEviction(t *testing.T) {
	db := fakeBlock(4)
	cost := db.cost()
	// Budget for three entries: the fourth insert must evict the coldest.
	c := NewBlockCache(cost*3 + cost/2)

	k := cacheKey{arch: 1, block: 7, group: allColumns}
	loads := 0
	load := func() (cacheValue, error) { loads++; return db, nil }

	for i := 0; i < 3; i++ {
		got, err := c.getOrLoad(k, load)
		if err != nil || got != db {
			t.Fatalf("getOrLoad #%d = %v, %v", i, got, err)
		}
	}
	if loads != 1 {
		t.Errorf("loader ran %d times, want 1", loads)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Bytes != cost {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry / %d bytes", s, cost)
	}

	// Overfill with keys that land in k's shard (bump arch until the shard
	// collides), so the eviction sweep — which visits the growing shard
	// last — must deterministically drop the coldest entry, k itself.
	shard := k.shard()
	var collide []cacheKey
	for a := uint64(2); len(collide) < 3; a++ {
		k2 := cacheKey{arch: a, block: 7, group: allColumns}
		if k2.shard() == shard {
			collide = append(collide, k2)
		}
	}
	for _, k2 := range collide {
		if _, err := c.getOrLoad(k2, func() (cacheValue, error) { return fakeBlock(4), nil }); err != nil {
			t.Fatal(err)
		}
	}
	s = c.Stats()
	if s.Evictions == 0 {
		t.Errorf("stats after overfilling = %+v, want evictions > 0", s)
	}
	if s.Bytes > c.budget {
		t.Errorf("cache bytes %d exceed budget %d", s.Bytes, c.budget)
	}

	// LRU order: the freshly promoted newest keys survive, the cold one is
	// out — reloading k must miss.
	before := c.Stats().Misses
	if _, err := c.getOrLoad(k, load); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != before+1 {
		t.Errorf("evicted key served from cache; misses = %d, want %d", c.Stats().Misses, before+1)
	}
}

func TestBlockCacheOversizedEntryNotCached(t *testing.T) {
	c := NewBlockCache(16) // 16-byte budget: every real block is oversized
	k := cacheKey{arch: 1, block: 1, group: allColumns}
	loads := 0
	for i := 0; i < 2; i++ {
		if _, err := c.getOrLoad(k, func() (cacheValue, error) { loads++; return fakeBlock(64), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 2 {
		t.Errorf("oversized entry was cached (loads = %d, want 2)", loads)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("stats = %+v, want no entries for oversized blocks", s)
	}
}

func TestBlockCacheErrorNotCached(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := cacheKey{arch: 1, block: 1, group: allColumns}
	boom := errors.New("boom")
	if _, err := c.getOrLoad(k, func() (cacheValue, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	db := fakeBlock(2)
	got, err := c.getOrLoad(k, func() (cacheValue, error) { return db, nil })
	if err != nil || got != db {
		t.Fatalf("retry after error = %v, %v; want the fresh block", got, err)
	}
}

// TestBlockCacheSingleflight hammers one cold key from many goroutines and
// requires exactly one decode: the rest must wait and share the result.
func TestBlockCacheSingleflight(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := cacheKey{arch: 9, block: 3, group: allColumns}
	db := fakeBlock(8)

	var loads atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]cacheValue, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.getOrLoad(k, func() (cacheValue, error) {
				loads.Add(1)
				<-gate // hold the flight open until every goroutine has arrived
				return db, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	// Wait until every follower has queued behind the one open flight, then
	// release the single decode.
	for c.Stats().InflightDedups < workers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Errorf("decode ran %d times under concurrency, want 1", n)
	}
	for i, got := range results {
		if got != db {
			t.Errorf("goroutine %d got %v, want the shared block", i, got)
		}
	}
	s := c.Stats()
	if s.InflightDedups+s.Hits != workers-1 {
		t.Errorf("stats = %+v, want dedups+hits = %d", s, workers-1)
	}
}

// TestReaderCacheFullBlockServesGroups checks the fallback path: a block a
// cursor decoded in full satisfies later single-link (group) queries
// without a second decode.
func TestReaderCacheFullBlockServesGroups(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 6; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	rd := openArchive(t, buildArchive(t, 3, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))

	// Full scan caches every block under allColumns.
	cur := rd.CursorParallel(context.Background(), wmap.Europe, at(0), at(1000), 1)
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	after := rd.BlockCache().Stats()

	// A link query must now be all hits: no new misses.
	key := LinkKeysOf(maps[0])[1]
	ab, _, err := linkSeries(context.Background(), rd, wmap.Europe, key, time.Time{}, time.Time{})
	if err != nil || len(ab.Points()) != 6 {
		t.Fatalf("linkSeries after warm scan: len %d, err %v", len(ab.Points()), err)
	}
	s := rd.BlockCache().Stats()
	if s.Misses != after.Misses {
		t.Errorf("link query decoded %d blocks despite warm full-block cache", s.Misses-after.Misses)
	}
	if s.Hits <= after.Hits {
		t.Errorf("link query recorded no cache hits (stats %+v)", s)
	}
}

// TestMaterializeClones proves the immutability invariant the shared cache
// relies on: mutating a materialized snapshot must not leak into later
// materializations of the same cached block.
func TestMaterializeClones(t *testing.T) {
	maps := []*wmap.Map{
		testMap(wmap.Europe, at(0), 1, 2, 3, 4, 5, 6),
		testMap(wmap.Europe, at(5), 2, 3, 4, 5, 6, 7),
	}
	rd := openArchive(t, buildArchive(t, 0, maps...))
	rd.SetBlockCache(NewBlockCache(1 << 20))

	m1, err := rd.SnapshotAt(wmap.Europe, at(0))
	if err != nil {
		t.Fatal(err)
	}
	m1.Links[0].LoadAB = 99
	m1.Links[0].A = "clobbered"
	m1.Nodes[0].Name = "clobbered"

	m2, err := rd.SnapshotAt(wmap.Europe, at(0)) // same cached block
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Links, maps[0].Links) || !reflect.DeepEqual(m2.Nodes, maps[0].Nodes) {
		t.Errorf("mutation of a materialized snapshot leaked into the cache:\ngot  %+v\nwant %+v", m2.Links, maps[0].Links)
	}
}
