package tsdb

import (
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ovhweather/internal/wmap"
)

// referenceCommitView is the full derivation of a commit's view that
// commitIndex.extend replaced: every row indexed in one pass, then every
// per-map list sorted and each map's blocks checked for overlap in time.
// FuzzCommitIndex and TestCommitIndexMatchesReference hold extend to it.
func referenceCommitView(c *committed) (*commitView, error) {
	fd := c.fd
	cv := &commitView{
		commitIndex: commitIndex{
			strs:        fd.strs,
			blocks:      fd.blocks,
			rollups:     fd.rollups,
			events:      fd.events,
			perMap:      make(map[wmap.MapID][]int),
			snaps:       make(map[wmap.MapID]int),
			evCount:     make(map[wmap.MapID]int),
			lives:       make(headLives),
			evPerMap:    make(map[wmap.MapID][]int),
			rollupTiers: make(map[wmap.MapID][]rollupTier),
		},
		c:        c,
		size:     c.size,
		topos:    fd.topos,
		cfp:      c.fingerprint(),
		cversion: c.version,
		live:     c.live,
		keyDir:   &topoKeyDir{},
	}
	for i := range cv.blocks {
		id := wmap.MapID(cv.strs[cv.blocks[i].mapRef])
		cv.perMap[id] = append(cv.perMap[id], i)
		cv.snaps[id] += cv.blocks[i].points
		l := cv.lives.get(id)
		l.sealedLast = max(l.sealedLast, cv.blocks[i].lastUnix)
		cv.lives[id] = l
	}
	for i := range cv.events {
		id := wmap.MapID(cv.strs[cv.events[i].mapRef])
		cv.evPerMap[id] = append(cv.evPerMap[id], i)
		cv.evCount[id] += cv.events[i].count
		l := cv.lives.get(id)
		l.evFront = max(l.evFront, cv.events[i].lastPoint)
		cv.lives[id] = l
	}
	for _, ei := range cv.evPerMap {
		sort.Slice(ei, func(a, b int) bool { return cv.events[ei[a]].offset < cv.events[ei[b]].offset })
	}
	for i := range cv.rollups {
		m := &cv.rollups[i]
		id := wmap.MapID(cv.strs[m.mapRef])
		tiers := cv.rollupTiers[id]
		ti := -1
		for k := range tiers {
			if tiers[k].res == m.res {
				ti = k
				break
			}
		}
		if ti < 0 {
			tiers = append(tiers, rollupTier{res: m.res})
			ti = len(tiers) - 1
		}
		tiers[ti].entries = append(tiers[ti].entries, i)
		if m.lastPoint > tiers[ti].maxLast {
			tiers[ti].maxLast = m.lastPoint
		}
		cv.rollupTiers[id] = tiers
	}
	for _, tiers := range cv.rollupTiers {
		sort.Slice(tiers, func(a, b int) bool { return tiers[a].res < tiers[b].res })
		for k := range tiers {
			es := tiers[k].entries
			sort.Slice(es, func(a, b int) bool {
				ra, rb := &cv.rollups[es[a]], &cv.rollups[es[b]]
				if ra.firstBucket != rb.firstBucket {
					return ra.firstBucket < rb.firstBucket
				}
				return ra.offset < rb.offset
			})
		}
	}
	for id, bl := range cv.perMap {
		sort.Slice(bl, func(a, b int) bool { return cv.blocks[bl[a]].baseUnix < cv.blocks[bl[b]].baseUnix })
		for k := 1; k < len(bl); k++ {
			prev, cur := &cv.blocks[bl[k-1]], &cv.blocks[bl[k]]
			if cur.baseUnix <= prev.lastUnix {
				return nil, corruptf(cur.offset, "map %s blocks overlap in time", id)
			}
		}
		cv.sealed = append(cv.sealed, id)
	}
	slices.Sort(cv.sealed)
	return cv, nil
}

// referenceDecodeBlock is the raw-block decode that decodeBlockAt's slab
// and one-byte fast path replaced: one allocation per wanted column and
// one binary.Varint call per load. The only edit is that each load is
// range-checked as an integer before it becomes a wmap.Load, so the
// reference stays right if that type narrows. FuzzDecodeBlock holds
// decodeBlockAt to it.
func referenceDecodeBlock(r io.ReaderAt, size int64, meta *blockMeta, want func(ci int) bool) (*decodedBlock, error) {
	d, buf, err := readFrame(r, size, meta.frame, "block")
	defer putFrame(buf)
	if err != nil {
		return nil, err
	}
	if err := d.header("block", meta.mapRef, uint64(meta.topoIndex), uint64(meta.baseUnix),
		uint64(meta.points), uint64(meta.links)); err != nil {
		return nil, err
	}
	n, L := meta.points, meta.links

	timeLen, err := d.uvarint("time column length")
	if err != nil {
		return nil, err
	}
	colLens := make([]uint64, 2*L)
	var colSum uint64
	for i := range colLens {
		v, err := d.uvarint("column length")
		if err != nil {
			return nil, err
		}
		colLens[i] = v
		colSum += v
	}
	if timeLen+colSum != uint64(d.remaining()) {
		return nil, corruptf(d.abs(), "column directory claims %d bytes, %d remain", timeLen+colSum, d.remaining())
	}
	if uint64(n-1) > timeLen {
		return nil, corruptf(d.abs(), "%d points cannot fit a %d-byte time column", n, timeLen)
	}

	db := &decodedBlock{meta: meta, times: make([]int64, 0, n), cols: make([][]wmap.Load, 2*L)}
	tb, err := d.bytes(int(timeLen), "time column")
	if err != nil {
		return nil, err
	}
	td := &dec{b: tb, off: d.abs() - int64(len(tb))}
	t := meta.baseUnix
	db.times = append(db.times, t)
	for i := 1; i < n; i++ {
		delta, err := td.uvarint("time delta")
		if err != nil {
			return nil, err
		}
		if delta == 0 || t+int64(delta) > maxUnixSeconds {
			return nil, corruptf(td.abs(), "non-increasing or absurd time delta %d", delta)
		}
		t += int64(delta)
		db.times = append(db.times, t)
	}
	if td.remaining() != 0 {
		return nil, corruptf(td.abs(), "%d trailing bytes in time column", td.remaining())
	}
	if t != meta.lastUnix {
		return nil, corruptf(td.abs(), "block last time %d disagrees with index's %d", t, meta.lastUnix)
	}

	for ci := 0; ci < 2*L; ci++ {
		cb, err := d.bytes(int(colLens[ci]), "load column")
		if err != nil {
			return nil, err
		}
		if want != nil && !want(ci) {
			continue
		}
		if uint64(n) > colLens[ci] {
			return nil, corruptf(d.abs(), "%d points cannot fit a %d-byte load column", n, colLens[ci])
		}
		cd := &dec{b: cb, off: d.abs() - int64(len(cb))}
		col := make([]wmap.Load, 0, n)
		v, err := cd.uvarint("load value")
		if err != nil {
			return nil, err
		}
		load := int64(v)
		if load < 0 || load > 100 {
			return nil, corruptf(cd.abs(), "load %d out of [0, 100]", load)
		}
		col = append(col, wmap.Load(load))
		for i := 1; i < n; i++ {
			delta, err := cd.varint("load delta")
			if err != nil {
				return nil, err
			}
			load += delta
			if load < 0 || load > 100 {
				return nil, corruptf(cd.abs(), "load %d out of [0, 100]", load)
			}
			col = append(col, wmap.Load(load))
		}
		if cd.remaining() != 0 {
			return nil, corruptf(cd.abs(), "%d trailing bytes in load column", cd.remaining())
		}
		db.cols[ci] = col
	}
	return db, nil
}

// TestCommitIndexMatchesReference: the index an open derives from a real
// archive — three maps, topology changes, two rollup tiers, event frames —
// is the reference derivation's, field for field.
func TestCommitIndexMatchesReference(t *testing.T) {
	st := openArchive(t, buildArchive(t, 16, syncStream()...)).st()
	if len(st.rollups) == 0 || len(st.events) == 0 {
		t.Fatalf("fixture has %d rollup blocks and %d event frames; want both", len(st.rollups), len(st.events))
	}
	want, err := referenceCommitView(st.c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.commitIndex, want.commitIndex) {
		t.Fatalf("index differs from the reference:\n got %+v\nwant %+v", st.commitIndex, want.commitIndex)
	}
}

// indexRows decodes a fuzz program into index rows over three maps, four
// bytes a row: the kind and map, then three parameters. Offsets are
// distinct, so every order the index sorts by is total, and follow the
// first parameter, so rows arrive in any offset order.
func indexRows(prog []byte) *footerData {
	fd := &footerData{strs: []string{"europe", "world", "asia-pacific"}}
	for i := 0; i+4 <= len(prog) && i < 4<<10; i += 4 {
		op, a, b, c := prog[i], int64(prog[i+1]), int64(prog[i+2]), int64(prog[i+3])
		f := frame{offset: 8 + a<<12 + int64(i/4)}
		ref := uint64(op/3) % 3
		switch op % 3 {
		case 0: // blocks at 10b lasting c%16 s: equal or adjacent b may overlap
			fd.blocks = append(fd.blocks, blockMeta{frame: f, mapRef: ref,
				baseUnix: 10 * b, lastUnix: 10*b + c%16, points: 1 + int(c%16)})
		case 1: // tiers in any resolution order
			res := []int64{300, 3600, 86400}[c%3]
			fd.rollups = append(fd.rollups, rollupMeta{frame: f, mapRef: ref, res: res,
				firstBucket: b * res, lastBucket: (b + c/3) * res, lastPoint: (b+c/3)*res + c%7, buckets: 1 + int(c/3)})
		default:
			fd.events = append(fd.events, eventMeta{frame: f, mapRef: ref, lastPoint: 10 * b, count: 1 + int(c%8)})
		}
	}
	return fd
}

// FuzzCommitIndex: an index extended by a prefix of each table's rows,
// then a clone of it extended by every row, equals the reference
// derivation over every row, and the prefix index still equals the
// reference over the prefix (a Refresh never disturbs the state it starts
// from). Rows with overlapping blocks fail with *CorruptError in both.
func FuzzCommitIndex(f *testing.F) {
	row := func(op, a, b, c byte) []byte { return []byte{op, a, b, c} }
	cat := func(rows ...[]byte) []byte { return slices.Concat(rows...) }
	// Blocks of one map out of time order, not overlapping.
	f.Add(cat(row(0, 1, 20, 3), row(0, 2, 5, 3), row(0, 3, 30, 3)), uint8(1), uint8(0), uint8(0))
	// A coarse rollup tier before a fine one, and a tier entry out of order.
	f.Add(cat(row(1, 1, 10, 2), row(1, 2, 10, 0), row(1, 3, 4, 0), row(4, 4, 1, 1)), uint8(0), uint8(1), uint8(0))
	// Event frames out of offset order.
	f.Add(cat(row(2, 9, 5, 0), row(2, 3, 6, 0), row(5, 1, 7, 1), row(2, 5, 8, 2)), uint8(0), uint8(0), uint8(2))
	// Overlapping blocks, split between prefix and rest.
	f.Add(cat(row(0, 1, 20, 15), row(3, 2, 20, 4), row(0, 2, 21, 3)), uint8(1), uint8(0), uint8(0))
	// Prefix lists with room to grow in place, then a row of each kind
	// that lands before their last: sorting must not reorder the prefix.
	f.Add(cat(row(0, 1, 20, 3), row(0, 2, 30, 3), row(0, 3, 40, 3), row(0, 4, 5, 3),
		row(1, 1, 10, 0), row(1, 2, 11, 0), row(1, 3, 12, 0), row(1, 4, 4, 0),
		row(2, 3, 5, 0), row(2, 4, 6, 0), row(2, 9, 7, 0), row(2, 5, 8, 2)), uint8(3), uint8(3), uint8(3))
	// Every kind at once, in order and out of it.
	f.Add(cat(row(0, 1, 1, 9), row(3, 1, 1, 9), row(1, 2, 1, 0), row(2, 3, 1, 1), row(0, 4, 3, 9),
		row(1, 5, 0, 2), row(2, 0, 0, 1), row(6, 6, 9, 3), row(0, 7, 2, 5), row(7, 8, 2, 1)), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, prog []byte, kb, kr, ke uint8) {
		fd := indexRows(prog)
		pre := &footerData{strs: fd.strs, blocks: fd.blocks[:int(kb)%(len(fd.blocks)+1)],
			rollups: fd.rollups[:int(kr)%(len(fd.rollups)+1)], events: fd.events[:int(ke)%(len(fd.events)+1)]}
		// same reports whether ix and err are what the reference derives
		// from fd, failing the test when they are not.
		same := func(what string, ix *commitIndex, err error, fd *footerData) bool {
			t.Helper()
			want, wantErr := referenceCommitView(&committed{fd: fd})
			var ce *CorruptError
			switch {
			case wantErr != nil && !errors.As(wantErr, &ce):
				t.Fatalf("reference over %s: %v is not a *CorruptError", what, wantErr)
			case wantErr != nil && !errors.As(err, &ce):
				t.Fatalf("%s: err = %v, the reference fails with %v", what, err, wantErr)
			case wantErr == nil && err != nil:
				t.Fatalf("%s: %v; the reference accepts the rows", what, err)
			case wantErr == nil && !reflect.DeepEqual(*ix, want.commitIndex):
				t.Fatalf("%s differs from the reference:\n got %+v\nwant %+v", what, *ix, want.commitIndex)
			}
			return wantErr == nil
		}
		var ix commitIndex
		if !same("the prefix", &ix, ix.extend(pre), pre) {
			return
		}
		next := ix.clone()
		same("the prefix's clone extended by the rest", &next, next.extend(fd), fd)
		same("the prefix after its clone was extended", &ix, nil, pre)
	})
}

// referenceAccumulateRaw is the per-point fold gridLink.accumulateRaw
// replaced: every point updates its window in memory, the extremes
// compared as bytes, and a planner-declined link allocates its windows on
// its first sample. FuzzAccumulateRaw holds accumulateRaw to it.
func referenceAccumulateRaw(gl *gridLink, times []int64, abCol, baCol []wmap.Load, s int64) {
	if len(times) == 0 {
		return
	}
	if gl.lw.wins == nil {
		t0 := times[0]
		gl.lw = loadWindows{t0: t0, step: s}
		gl.lw.wins = make([]loadWindow, (gl.end-t0)/s+1)
		for k := range gl.lw.wins {
			gl.lw.wins[k].abMin, gl.lw.wins[k].baMin = math.MaxUint8, math.MaxUint8
		}
	}
	i := (times[0] - gl.lw.t0) / s
	w, next := &gl.lw.wins[i], gl.lw.t0+(i+1)*s
	for k, sec := range times {
		if sec >= next {
			i = (sec - gl.lw.t0) / s
			w, next = &gl.lw.wins[i], gl.lw.t0+(i+1)*s
		}
		w.n++
		ab, ba := uint8(abCol[k]), uint8(baCol[k])
		w.ab += int64(ab)
		w.ba += int64(ba)
		if ab < w.abMin {
			w.abMin = ab
		}
		if ab > w.abMax {
			w.abMax = ab
		}
		if ba < w.baMin {
			w.baMin = ba
		}
		if ba > w.baMax {
			w.baMax = ba
		}
	}
}

// foldProgram decodes a fuzz program into ascending times and loads, four
// bytes a point: the gap from the previous point (short hops inside a
// window up to jumps over several), the two loads in [0, 100], and
// whether the point starts a new fold call (every fourth) and whether an
// empty call precedes it. calls holds each call's first point index.
func foldProgram(prog []byte, base int64) (times []int64, ab, ba []wmap.Load, calls []int) {
	t := base
	for i := 0; i+4 <= len(prog) && len(times) < 1024; i += 4 {
		g, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		if len(times) > 0 {
			t += 1 + int64(g)*int64(g&7+1)
		}
		if c%4 == 0 || len(times) == 0 {
			if c%16 == 4 {
				calls = append(calls, len(times)) // an empty call
			}
			calls = append(calls, len(times))
		}
		times = append(times, t)
		ab = append(ab, wmap.Load(a%101))
		ba = append(ba, wmap.Load(b%101))
	}
	return times, ab, ba, calls
}

// FuzzAccumulateRaw: the register-held fold leaves every window exactly
// as the reference fold does, over random ascending times with gaps,
// one-point calls, calls that start mid-window and repeated calls into
// one link's windows. A raw link folds into a slab reservation of its
// bound; a planned one into windows anchored before its first point that
// already hold a folded bucket, as the rollup leg leaves them.
func FuzzAccumulateRaw(f *testing.F) {
	pt := func(gap, ab, ba, call byte) []byte { return []byte{gap, ab, ba, call} }
	cat := func(pts ...[]byte) []byte { return slices.Concat(pts...) }
	// One-point calls across windows of 5 s.
	f.Add(cat(pt(0, 10, 90, 0), pt(2, 20, 80, 0), pt(2, 30, 70, 0), pt(9, 40, 60, 0)), uint16(4), uint8(0), false)
	// One call over noisy loads, windows of 60 s anchored mid-window.
	f.Add(cat(pt(0, 0, 100, 1), pt(3, 100, 0, 1), pt(5, 50, 50, 1), pt(7, 99, 1, 1), pt(200, 3, 3, 1), pt(1, 77, 13, 1)), uint16(59), uint8(17), true)
	// Empty calls, a call starting in the window the last one ended in,
	// and a jump over several windows.
	f.Add(cat(pt(0, 5, 5, 4), pt(1, 6, 6, 1), pt(1, 7, 7, 20), pt(255, 8, 8, 1), pt(4, 9, 9, 4)), uint16(9), uint8(3), false)
	// A step of one second: every point its own window.
	f.Add(cat(pt(0, 1, 2, 0), pt(0, 3, 4, 1), pt(0, 5, 6, 0)), uint16(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, prog []byte, step uint16, lead uint8, planned bool) {
		times, ab, ba, calls := foldProgram(prog, 1_600_000_000+int64(lead)*7)
		if len(times) == 0 {
			return
		}
		// At most ~4k windows, so a long program with a short step stays
		// small.
		s := max(1+int64(step)%3600, (times[len(times)-1]-times[0])>>12+1)
		first, end := times[0], times[len(times)-1]+int64(lead%3)*s
		got, want := gridLink{end: end}, gridLink{end: end}
		t0 := first - int64(lead)
		n := (end-t0)/s + 1
		if planned {
			wins := func() []loadWindow {
				w := make([]loadWindow, n)
				for k := range w {
					w[k].abMin, w[k].baMin = math.MaxUint8, math.MaxUint8
				}
				w[0] = loadWindow{n: 2, ab: 2 * int64(lead%101), ba: 100, abMin: lead % 101, abMax: lead % 101, baMin: 40, baMax: 60}
				return w
			}
			got.lw = loadWindows{t0: t0, step: s, wins: wins()}
			want.lw = loadWindows{t0: t0, step: s, wins: wins()}
		} else {
			slab := make([]loadWindow, n)
			for k := range slab {
				slab[k].abMin, slab[k].baMin = math.MaxUint8, math.MaxUint8
			}
			got.lw.wins = slab[:0:n]
		}
		for c, lo := range calls {
			hi := len(times)
			if c+1 < len(calls) {
				hi = calls[c+1]
			}
			got.accumulateRaw(times[lo:hi], ab[lo:hi], ba[lo:hi], s)
			referenceAccumulateRaw(&want, times[lo:hi], ab[lo:hi], ba[lo:hi], s)
		}
		if got.lw.t0 != want.lw.t0 || got.lw.step != want.lw.step || len(got.lw.wins) != len(want.lw.wins) {
			t.Fatalf("anchor (t0 %d, step %d, %d windows), reference (t0 %d, step %d, %d windows)",
				got.lw.t0, got.lw.step, len(got.lw.wins), want.lw.t0, want.lw.step, len(want.lw.wins))
		}
		for k := range want.lw.wins {
			if got.lw.wins[k] != want.lw.wins[k] {
				t.Fatalf("window %d = %+v, reference %+v", k, got.lw.wins[k], want.lw.wins[k])
			}
		}
	})
}
