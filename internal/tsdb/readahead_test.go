package tsdb

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// collectCursor drains a cursor into a snapshot slice.
func collectCursor(t *testing.T, cur *Cursor) []*wmap.Map {
	t.Helper()
	var out []*wmap.Map
	for cur.Next() {
		out = append(out, cur.MapView().Clone())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceSnapshots is the sequential contract the cursor is held to: it
// decodes every block of the range on the calling goroutine, in order, and
// materializes each in-range point.
func referenceSnapshots(t *testing.T, rd *Reader, id wmap.MapID, from, to time.Time) []*wmap.Map {
	t.Helper()
	fromU, toU := rangeBounds(from, to)
	st := rd.st()
	var out []*wmap.Map
	for _, bi := range st.blockRange(id, fromU, toU) {
		db, err := rd.block(st, bi, allColumns)
		if err != nil {
			t.Fatal(err)
		}
		for pi, sec := range db.times {
			if sec >= fromU && sec <= toU {
				out = append(out, materialize(st, db, pi))
			}
		}
	}
	return out
}

// TestCursorParallelMatchesSequential proves the read-ahead pipeline is
// invisible: for several worker counts, ranges, and cache configurations,
// the cursor yields exactly the snapshots a sequential decode does, in the
// same order.
func TestCursorParallelMatchesSequential(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 25; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i%100, (10+i)%100, (20+i)%100, (30+i)%100, (40+i)%100, (50+i)%100))
	}
	maps = append(maps, grownMap(wmap.Europe, at(5*25))) // topology change mid-stream
	data := buildArchive(t, 4, maps...)

	ranges := []struct{ from, to time.Time }{
		{time.Time{}, time.Time{}}, // unbounded
		{at(17), at(102)},          // mid-block on both sides
		{at(25), at(25)},           // single point
		{at(1000), at(2000)},       // empty
	}
	for _, withCache := range []bool{false, true} {
		rd := openArchive(t, data)
		if withCache {
			rd.SetBlockCache(NewBlockCache(1 << 20))
		}
		for _, rng := range ranges {
			want := referenceSnapshots(t, rd, wmap.Europe, rng.from, rng.to)
			for _, workers := range []int{1, 2, 4, 8} {
				got := collectCursor(t, rd.CursorParallel(context.Background(), wmap.Europe, rng.from, rng.to, workers))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cache=%v workers=%d range [%v, %v]: parallel cursor diverges (%d vs %d snapshots)",
						withCache, workers, rng.from, rng.to, len(got), len(want))
				}
			}
		}
	}
}

// TestCursorParallelCancellation cancels mid-iteration and requires the
// cursor to stop with the context's error and the pipeline goroutines to
// unwind instead of leaking.
func TestCursorParallelCancellation(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 40; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 1, 2, 3, 4, 5, 6))
	}
	rd := openArchive(t, buildArchive(t, 2, maps...)) // 20 blocks

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur := rd.CursorParallel(ctx, wmap.Europe, time.Time{}, time.Time{}, 4)
	n := 0
	for cur.Next() {
		n++
		if n == 3 {
			cancel()
		}
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cursor Err = %v (after %d snapshots), want context.Canceled", err, n)
	}
	if n >= len(maps) {
		t.Fatalf("cursor delivered all %d snapshots despite cancellation", n)
	}
	// The pool must drain: allow the scheduler a moment, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines after cancel, %d before: pipeline leaked", g, before)
	}

	// Abandoning a cursor without iterating to the end: Close must unwind.
	cur = rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 4)
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	cur.Close()
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines after Close, %d before: pipeline leaked", g, before)
	}
	if cur.Next() {
		t.Error("Next returned true after Close")
	}
}

// TestCursorParallelPropagatesCorruption flips a byte inside a late block
// and requires the parallel cursor to surface the *CorruptError in order —
// after every snapshot of the intact earlier blocks.
func TestCursorParallelPropagatesCorruption(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 12; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 1, 2, 3, 4, 5, 6))
	}
	data := buildArchive(t, 3, maps...)
	// Corrupt the last block's payload: find it via a clean reader.
	clean := openArchive(t, data)
	last := clean.st().blocks[len(clean.st().blocks)-1]
	mut := append([]byte(nil), data...)
	mut[last.offset+4] ^= 0xFF

	rd := openArchive(t, mut)
	cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 4)
	n := 0
	for cur.Next() {
		n++
	}
	var ce *CorruptError
	if err := cur.Err(); !errors.As(err, &ce) {
		t.Fatalf("Err = %v, want *CorruptError", err)
	}
	if n != 9 { // three intact 3-point blocks precede the corrupt one
		t.Errorf("delivered %d snapshots before the corrupt block, want 9", n)
	}
}

// TestCursorMapViewMatchesMap proves the scratch-backed view is
// indistinguishable from an owned materialized snapshot at every step —
// with one and with several decoders, with and without a cache — that
// both match the sequential reference, and that the scratch reuse never
// leaks one snapshot's loads into the next. The view alone carries Topo,
// which must have the owned snapshot's skeleton.
func TestCursorMapViewMatchesMap(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 10; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i, 10+i, 20+i, 30+i, 40+i, 50+i))
	}
	maps = append(maps, grownMap(wmap.Europe, at(50)))
	data := buildArchive(t, 3, maps...)

	for _, withCache := range []bool{false, true} {
		rd := openArchive(t, data)
		if withCache {
			rd.SetBlockCache(NewBlockCache(1 << 20))
		}
		ref := referenceSnapshots(t, rd, wmap.Europe, time.Time{}, time.Time{})
		for _, workers := range []int{1, 4} {
			parallel := workers > 1
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, workers)
			i := 0
			for cur.Next() {
				view, owned := cur.MapView(), materialize(cur.st, cur.vdb, cur.vpi)
				if !reflect.DeepEqual(view.Clone(), owned) || !view.Topo.Matches(owned) || i >= len(ref) || !reflect.DeepEqual(owned, ref[i]) {
					t.Fatalf("cache=%v parallel=%v snapshot %d: MapView diverges from Map", withCache, parallel, i)
				}
				if !reflect.DeepEqual(owned.Links, maps[i].Links) {
					t.Fatalf("cache=%v parallel=%v snapshot %d: loads diverge from source", withCache, parallel, i)
				}
				i++
			}
			if err := cur.Err(); err != nil || i != len(maps) {
				t.Fatalf("cache=%v parallel=%v: %d snapshots, err %v", withCache, parallel, i, err)
			}
		}
	}
}

// TestMapViewSteadyAllocs pins MapView's zero steady-state allocations:
// inside one block, once the view holds the block's topology, Next and
// MapView rewrite the time and the loads and allocate nothing.
func TestMapViewSteadyAllocs(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 64; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i, 10+i%50, 20, 30+i%20, 40, 50))
	}
	cur := openArchive(t, buildArchive(t, 64, maps...)).CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
	defer cur.Close()
	if !cur.Next() {
		t.Fatalf("empty cursor: %v", cur.Err())
	}
	cur.MapView()
	i := 1
	allocs := testing.AllocsPerRun(50, func() {
		if !cur.Next() {
			t.Fatalf("block ended at snapshot %d: %v", i, cur.Err())
		}
		if m := cur.MapView(); m.Links[0].LoadAB != maps[i].Links[0].LoadAB {
			t.Fatalf("snapshot %d: view load %d, want %d", i, m.Links[0].LoadAB, maps[i].Links[0].LoadAB)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Next+MapView inside a block: %v allocs per snapshot, want 0", allocs)
	}
}

// TestLinkSeriesContextCancelled: a pre-cancelled context fails fast, and
// a live one serves every point.
func TestLinkSeriesContextCancelled(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 10; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10, 20, 30, 40, 50, 60))
	}
	rd := openArchive(t, buildArchive(t, 2, maps...))
	key := LinkKeysOf(maps[0])[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := linkSeries(ctx, rd, wmap.Europe, key, time.Time{}, time.Time{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled linkSeries = %v, want context.Canceled", err)
	}

	ab, ba, err := linkSeries(context.Background(), rd, wmap.Europe, key, time.Time{}, time.Time{})
	if err != nil || len(ab.Points()) != 10 || len(ba.Points()) != 10 {
		t.Errorf("background linkSeries: %d/%d points, err %v", len(ab.Points()), len(ba.Points()), err)
	}
}
