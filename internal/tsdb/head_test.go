package tsdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// The head sidecar's battery: crash states of the head recover to its last
// whole frame or fail typed, a tailing reader never shows a partial frame,
// the head stays bounded by its live bytes across compactions, and a poll
// costs the same allocations however long the archive grows.

// writeHead puts head (nil: no head file) next to the archive at path.
func writeHead(t *testing.T, path string, head []byte) {
	t.Helper()
	os.Remove(headPath(path))
	if head == nil {
		return
	}
	if err := os.WriteFile(headPath(path), head, 0o666); err != nil {
		t.Fatal(err)
	}
}

// closeOutHead is closeOut over a crash state that includes a head.
func closeOutHead(t *testing.T, dir, name string, st fileState, head []byte) ([]byte, error) {
	t.Helper()
	path := restoreFiles(t, dir, name, st)
	writeHead(t, path, head)
	w, err := OpenAppend(path)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(headPath(path)); !os.IsNotExist(err) {
		t.Fatalf("head survived a clean Close (stat err %v)", err)
	}
	return os.ReadFile(path)
}

// snapshotsOf opens the crash state for reading, as a tailing reader
// would, and returns the snapshots it shows (-1 and the error when it
// refuses the state).
func snapshotsOf(t *testing.T, dir, name string, st fileState, head []byte) (int, error) {
	t.Helper()
	path := restoreFiles(t, dir, name, st)
	writeHead(t, path, head)
	rd, err := OpenFile(path)
	if err != nil {
		return -1, err
	}
	defer rd.Close()
	return rd.Stats().Snapshots, nil
}

// frameEndsOf returns the offsets where the head's whole frames end, the
// header's end first.
func frameEndsOf(t *testing.T, head []byte) []int {
	t.Helper()
	ends := []int{headHeaderLen}
	for pos := headHeaderLen; ; {
		_, n, ok := nextFrame(head[pos:], int64(pos))
		if !ok {
			break
		}
		pos += n
		ends = append(ends, pos)
	}
	if ends[len(ends)-1] != len(head) {
		t.Fatalf("head of %d bytes has a torn tail at %d", len(head), ends[len(ends)-1])
	}
	return ends
}

// buildHeadState abandons a live writer whose head holds dead frames (a
// block sealed after them), live frames of two maps, and events.
func buildHeadState(t *testing.T) (fileState, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "head.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	for i := 0; i < 11; i++ {
		if err := w.Append(evSeqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := w.Append(seqMap(wmap.World, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := captureFiles(t, path)
	head, err := os.ReadFile(headPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return st, head
}

// TestTornHeadMatrix is the head's crash matrix: every truncation and every
// single-byte flip of the head. OpenAppend must either resume to the last
// whole frame before the damage — closing into exactly the archive that
// frame prefix closes into — or fail with a *CorruptError, and a reader
// opened on the same state must show exactly that prefix, never a partial
// frame.
func TestTornHeadMatrix(t *testing.T) {
	st, head := buildHeadState(t)
	dir := t.TempDir()
	ends := frameEndsOf(t, head)
	want := make([][]byte, len(ends))
	snaps := make([]int, len(ends))
	for j, end := range ends {
		var err error
		if want[j], err = closeOutHead(t, dir, "want.tsdb", st, head[:end]); err != nil {
			t.Fatalf("%d whole frames: %v", j, err)
		}
		if snaps[j], err = snapshotsOf(t, dir, "wantrd.tsdb", st, head[:end]); err != nil {
			t.Fatalf("%d whole frames: reader: %v", j, err)
		}
	}
	if snaps[0] == snaps[len(snaps)-1] || bytes.Equal(want[0], want[len(want)-1]) {
		t.Fatal("the head's frames add nothing; the matrix would prove nothing")
	}
	t.Logf("matrix: %d-byte head, %d frames, %d to %d snapshots", len(head), len(ends)-1, snaps[0], snaps[len(snaps)-1])
	// whole returns the number of whole frames below offset k.
	whole := func(k int) int {
		j := 0
		for j+1 < len(ends) && ends[j+1] <= k {
			j++
		}
		return j
	}

	for k := 0; k <= len(head); k++ {
		j := whole(k)
		got, err := closeOutHead(t, dir, "trunc.tsdb", st, head[:k])
		if err != nil {
			t.Fatalf("head truncated at %d: %v", k, err)
		}
		if !bytes.Equal(got, want[j]) {
			t.Fatalf("head truncated at %d: recovered archive differs from its %d whole frames", k, j)
		}
		if n, err := snapshotsOf(t, dir, "truncrd.tsdb", st, head[:k]); err != nil || n != snaps[j] {
			t.Fatalf("head truncated at %d: reader shows %d snapshots (err %v), want %d", k, n, err, snaps[j])
		}
	}

	// A power loss can leave zeros past the last durable write: they hold
	// no frame.
	zeros := append(append([]byte(nil), head...), make([]byte, 64)...)
	if got, err := closeOutHead(t, dir, "zeros.tsdb", st, zeros); err != nil || !bytes.Equal(got, want[len(want)-1]) {
		t.Fatalf("zero-filled head tail: err %v, or recovery differs from the whole frames", err)
	}
	if n, err := snapshotsOf(t, dir, "zerosrd.tsdb", st, zeros); err != nil || n != snaps[len(snaps)-1] {
		t.Fatalf("zero-filled head tail: reader shows %d snapshots (err %v), want %d", n, err, snaps[len(snaps)-1])
	}

	for k := 0; k < len(head); k++ {
		flipped := append([]byte(nil), head...)
		flipped[k] ^= 0xFF
		j := whole(k) // the frames before the damaged one
		if k >= len(headMagic) && k < headHeaderLen {
			j = len(ends) - 1 // the generation: no frame is damaged
		}
		got, err := closeOutHead(t, dir, "flip.tsdb", st, flipped)
		n, rerr := snapshotsOf(t, dir, "fliprd.tsdb", st, flipped)
		var ce *CorruptError
		if err != nil {
			if !errors.As(err, &ce) || rerr == nil {
				t.Fatalf("head byte %d flipped: OpenAppend err = %v, reader err = %v; want both *CorruptError", k, err, rerr)
			}
			continue
		}
		if !bytes.Equal(got, want[j]) {
			t.Fatalf("head byte %d flipped: recovered archive differs from its %d whole frames", k, j)
		}
		if rerr != nil || n != snaps[j] {
			t.Fatalf("head byte %d flipped: reader shows %d snapshots (err %v), want %d", k, n, rerr, snaps[j])
		}
	}

	// A reader tailing the head as it grows byte by byte adopts each frame
	// once it is whole, and nothing before.
	path := restoreFiles(t, dir, "tail.tsdb", st)
	writeHead(t, path, head[:headHeaderLen])
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	f, err := os.OpenFile(headPath(path), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for k := headHeaderLen; k < len(head); k++ {
		if _, err := f.Write(head[k : k+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Refresh(); err != nil {
			t.Fatalf("tail at %d: %v", k+1, err)
		}
		if n, j := rd.Stats().Snapshots, whole(k+1); n != snaps[j] {
			t.Fatalf("tail at %d: reader shows %d snapshots, want %d", k+1, n, snaps[j])
		}
	}
}

// headAccount reads an archive's checkpoint and head and splits the head's
// bytes: live entry bytes and the framing of frames holding any, and the
// size of the last frame.
func headAccount(t *testing.T, path string) (size, live, lastFrame int64, gen uint64) {
	t.Helper()
	ck, err := readCheckpoint(CheckpointPath(path), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := parseFooter(ck.payload, 0, ck.dataEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, buf, start, size, err := readHeadFile(headPath(path), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ix commitIndex
	if err := ix.extend(fd); err != nil {
		t.Fatal(err)
	}
	hl := ix.lives
	_, err = scanHead(buf, start, fd.strs, fd.topos, func(hf *headFrame) error {
		framing, entries := int64(hf.size), int64(0)
		for i := range hf.raw {
			e := &hf.raw[i]
			framing -= int64(e.size)
			if hl.get(wmap.MapID(fd.strs[e.mapRef])).sealedLast < e.times[len(e.times)-1] {
				entries += int64(e.size)
			}
		}
		for _, e := range hf.evs {
			framing -= int64(e.size)
			if hl.get(wmap.MapID(fd.strs[e.mapRef])).evFront < e.lastPoint {
				entries += int64(e.size)
			}
		}
		if entries > 0 {
			live += entries + framing
		}
		lastFrame = int64(hf.size)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return size, live, lastFrame, gen
}

// TestHeadSizeBound: with Europe sealing every three points and World and
// North America never, the head stays within twice its live bytes plus
// one frame after every Sync, compacting as Europe's entries die; a
// tailing reader follows it across every compaction; and the closed
// archive is still the batch writer's.
func TestHeadSizeBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bound.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	var stream []*wmap.Map
	add := func(m *wmap.Map) {
		t.Helper()
		stream = append(stream, m)
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	var rd *Reader
	gens := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		// Europe is the big map and changes topology every three points.
		eu := wideMap(wmap.Europe, i, 40+i/3%2)
		add(eu)
		add(seqMap(wmap.World, i))
		add(seqMap(wmap.NorthAmerica, i))
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		size, live, last, gen := headAccount(t, path)
		gens[gen] = true
		if size > int64(headHeaderLen)+2*live+last {
			t.Fatalf("poll %d: head of %d bytes exceeds twice its %d live bytes plus a %d-byte frame", i, size, live, last)
		}
		if rd == nil {
			if rd, err = OpenFile(path); err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
		} else if _, err := rd.Refresh(); err != nil {
			t.Fatalf("poll %d: refresh: %v", i, err)
		}
		for _, id := range []wmap.MapID{wmap.Europe, wmap.World, wmap.NorthAmerica} {
			if n := rd.Snapshots(id); n != i+1 {
				t.Fatalf("poll %d: reader shows %d %s snapshots, want %d", i, n, id, i+1)
			}
		}
	}
	if len(gens) < 3 {
		t.Fatalf("the head was compacted %d times; the bound was never exercised", len(gens)-1)
	}
	t.Logf("%d head generations", len(gens))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := buildArchive(t, 0, stream...); !bytes.Equal(got, want) {
		t.Fatalf("closed archive differs from the batch writer's: %d vs %d bytes", len(got), len(want))
	}
}

// TestRefreshKeepsTopologies: a Refresh that only reads head frames keeps
// the state's commit view — strings, topologies, index rows — and one
// across a seal re-parses the checkpoint but keeps every string and
// topology value its table extends, so direction indexes built on them
// outlive polls.
func TestRefreshKeepsTopologies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetBlockPoints(4)
	i := 0
	poll := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	poll(5) // one sealed block, one head point
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	st0 := rd.st()
	topo, str := st0.topos[0], unsafe.StringData(st0.strs[0])
	topo.Keys() // build the direction index the pointer carries

	poll(1) // head only
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("head-only refresh: changed=%v err=%v", changed, err)
	}
	if st := rd.st(); st.commitView != st0.commitView || st.topos[0] != topo {
		t.Fatal("a head-only refresh rebuilt the commit view")
	}

	poll(3) // seals a second block
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("refresh across a seal: changed=%v err=%v", changed, err)
	}
	st := rd.st()
	if st.commitView == st0.commitView || len(st.blocks) != 2 {
		t.Fatalf("refresh across a seal kept the old commit (%d blocks)", len(st.blocks))
	}
	if st.topos[0] != topo {
		t.Error("refresh across a seal replaced topology 0")
	}
	if unsafe.StringData(st.strs[0]) != str {
		t.Error("refresh across a seal re-allocated string 0")
	}
	if n := rd.Snapshots(wmap.Europe); n != i {
		t.Fatalf("reader shows %d snapshots, want %d", n, i)
	}
}

// TestPollAllocsFlat: one live poll — Append on four maps, Sync, Refresh —
// costs the same allocations with 12 sealed blocks behind it as with 500:
// neither the Sync nor the Refresh touches what is sealed.
func TestPollAllocsFlat(t *testing.T) {
	ids := []wmap.MapID{wmap.Europe, wmap.World, wmap.NorthAmerica, wmap.AsiaPacific}
	// Both fixtures hold the same 250 points per map, so the rollup buckets
	// a poll opens fall on the same polls; only the block size differs.
	const points = 250
	allocs := func(sealed int) float64 {
		path := filepath.Join(t.TempDir(), "flat.tsdb")
		bw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		perMap := sealed / len(ids)
		bw.SetBlockPoints((points + perMap - 1) / perMap)
		i := 0
		round := func(w *Writer) {
			for _, id := range ids {
				if err := w.Append(testMap(id, at(5*i), 10, 20, 30, 40, 50, 20)); err != nil {
					t.Fatal(err)
				}
			}
			i++
		}
		for i < points {
			round(bw)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		w, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		round(w)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if n := rd.Stats().Blocks; n != sealed {
			t.Fatalf("fixture has %d sealed blocks, want %d", n, sealed)
		}
		return testing.AllocsPerRun(40, func() {
			round(w)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if changed, err := rd.Refresh(); err != nil || !changed {
				t.Fatalf("refresh: changed=%v err=%v", changed, err)
			}
		})
	}
	few, many := allocs(12), allocs(500)
	t.Logf("allocations per poll: %.0f at 12 sealed blocks, %.0f at 500", few, many)
	if few != many {
		t.Fatalf("a poll allocates %.0f times at 12 sealed blocks and %.0f at 500", few, many)
	}
}

// wideMap is a snapshot of a map with one router linked to n others, its
// loads a function of i.
func wideMap(id wmap.MapID, i, n int) *wmap.Map {
	m := &wmap.Map{ID: id, Time: at(5 * i), Nodes: []wmap.Node{{Name: "par-g1", Kind: wmap.Router}}}
	for k := 0; k < n; k++ {
		peer := fmt.Sprintf("r%d", k)
		m.Nodes = append(m.Nodes, wmap.Node{Name: peer, Kind: wmap.Router})
		m.Links = append(m.Links, wmap.Link{A: "par-g1", B: peer, LabelA: "#1", LabelB: "#1",
			LoadAB: wmap.Load((i + k) % 101), LoadBA: wmap.Load((2*i + k) % 101)})
	}
	return m
}

// TestRefreshMatchesOpen: a tailing reader's state after every Refresh is
// the state a fresh OpenFile builds at that moment — sealed tables and the
// per-map lookups derived from them, head blocks and head events,
// fingerprint and version — although the refreshes parse only the rows and
// frames past the previous state. The events it adopted over all refreshes
// are the archive's events.
func TestRefreshMatchesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetBlockPoints(16)
	rng := rand.New(rand.NewPCG(7, 7))
	var rd *Reader
	var adopted []events.Event
	frontier, shared := 0, 0
	for i, m := range syncStream() {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
		if rng.Float64() > 0.3 {
			continue
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if rd == nil {
			if rd, err = OpenFile(path); err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
		} else {
			prev := rd.st()
			if _, err := rd.Refresh(); err != nil {
				t.Fatalf("append %d: refresh: %v", i, err)
			}
			if st := rd.st(); len(st.blocks) > len(prev.blocks) && len(prev.blocks) > 0 &&
				unsafe.SliceData(st.blocks) == unsafe.SliceData(prev.blocks) {
				shared++
			}
		}
		evs, n, err := rd.EventsSince(context.Background(), frontier)
		if err != nil {
			t.Fatal(err)
		}
		adopted, frontier = append(adopted, evs...), n
		fresh, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rd.st(), fresh.st()
		fresh.Close()
		if msg := diffStates(got, want); msg != "" {
			t.Fatalf("append %d: refreshed state differs from a fresh open: %s", i, msg)
		}
	}
	if shared == 0 {
		t.Fatal("no refresh extended the previous block index in place; the incremental path went untested")
	}
	want, err := rd.Events(context.Background(), EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	sortEvents := func(evs []events.Event) {
		sort.SliceStable(evs, func(a, b int) bool {
			if !evs[a].Time.Equal(evs[b].Time) {
				return evs[a].Time.Before(evs[b].Time)
			}
			return evs[a].Map < evs[b].Map
		})
	}
	sortEvents(adopted)
	sortEvents(want)
	if len(want) == 0 || !reflect.DeepEqual(adopted, want) {
		t.Fatalf("EventsSince adopted %d events over the refreshes, the archive holds %d", len(adopted), len(want))
	}
}

// diffStates names the first part of two reader states that differs.
func diffStates(got, want *readerState) string {
	topos := func(st *readerState) [][2]any {
		var out [][2]any
		for _, t := range st.topos {
			out = append(out, [2]any{t.Nodes(), t.Links()})
		}
		return out
	}
	heads := func(st *readerState) []any {
		var out []any
		for _, hb := range st.heads {
			out = append(out, hb.meta, hb.decoded().times, hb.decoded().cols)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"strings", got.strs, want.strs},
		{"topologies", topos(got), topos(want)},
		{"blocks", got.blocks, want.blocks},
		{"rollups", got.rollups, want.rollups},
		{"events", got.events, want.events},
		{"perMap", got.perMap, want.perMap},
		{"snaps", got.snaps, want.snaps},
		{"evCount", got.evCount, want.evCount},
		{"lives", got.lives, want.lives},
		{"sealed", got.sealed, want.sealed},
		{"evPerMap", got.evPerMap, want.evPerMap},
		{"rollupTiers", got.rollupTiers, want.rollupTiers},
		{"mapIDs", got.mapIDs, want.mapIDs},
		{"heads", heads(got), heads(want)},
		{"headEvs", got.headEvs, want.headEvs},
		{"fingerprint", got.fp, want.fp},
		{"version", got.version, want.version},
		{"bytes", got.bytes, want.bytes},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Sprintf("%s: %v vs %v", c.name, c.got, c.want)
		}
	}
	return ""
}

// TestHeadFrameNoLargerThanBlock: the head frame one Sync writes for a
// poll is no larger than the one-snapshot blocks a Sync used to seal for
// the same points — per map, and for a poll of several maps at once.
func TestHeadFrameNoLargerThanBlock(t *testing.T) {
	for _, ids := range [][]wmap.MapID{
		{wmap.Europe},
		{wmap.Europe, wmap.World, wmap.NorthAmerica},
	} {
		var poll []*wmap.Map
		for k, id := range ids {
			poll = append(poll, wideMap(id, 3+k, 40+10*k))
		}
		path := filepath.Join(t.TempDir(), "frame.tsdb")
		w, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range poll {
			if err := w.Append(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		head := w.headSize - int64(headHeaderLen)
		w.Close()

		rd := openArchive(t, buildArchive(t, 1, poll...))
		var blocks int64
		for _, m := range rd.st().blocks {
			blocks += m.end() - m.offset
		}
		if head <= 0 || head > blocks {
			t.Fatalf("%d maps: head frame of %d bytes, one-snapshot blocks of %d", len(ids), head, blocks)
		}
		t.Logf("%d maps: head frame %d bytes, one-snapshot blocks %d bytes", len(ids), head, blocks)
	}
}

// TestLoadEntryPointsRejectOutOfRange: a head entry's load bytes are
// range-checked before they become wmap.Loads, so a byte of 101 fails the
// frame with a *CorruptError at that byte; 100 passes.
func TestLoadEntryPointsRejectOutOfRange(t *testing.T) {
	topo := wmap.NewTopology([]wmap.Node{{Name: "par-g1", Kind: wmap.Router}, {Name: "fra-g1", Kind: wmap.Router}},
		[]wmap.Link{{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1"}})
	frame := func(ba wmap.Load) []byte {
		ob := &openBlock{ncols: 2}
		ob.add(decodeBase, []wmap.Link{{LoadAB: 7, LoadBA: ba}})
		p := binary.AppendUvarint(nil, 1) // version
		p = binary.AppendUvarint(p, 1)    // raw entries
		p = appendHeadRaw(p, 0, ob, 0, 1)
		return binary.AppendUvarint(p, 0) // event entries
	}
	if _, err := parseHeadFrame(&dec{b: frame(100)}, []string{"europe"}, []*wmap.Topology{topo}); err != nil {
		t.Fatalf("in-range head frame: %v", err)
	}
	p := frame(101)
	_, err := parseHeadFrame(&dec{b: p}, []string{"europe"}, []*wmap.Topology{topo})
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != int64(len(p)-2) || !strings.Contains(ce.Reason, "head load 101") {
		t.Fatalf("head load byte 101: err %v, want a *CorruptError at offset %d naming it", err, len(p)-2)
	}
}
