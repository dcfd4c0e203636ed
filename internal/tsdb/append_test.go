package tsdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// The crash-recovery battery for the live-append protocol (checkpoint.go).
// The central property, mirroring PR 3's byte-flip tests for the closed
// format: whatever a crash leaves on disk, OpenAppend either recovers
// EXACTLY the committed prefix or fails with a typed *CorruptError — never
// a silent wrong read. The torn-tail matrix below proves it exhaustively:
// every truncation offset of the data written past the last commit, every
// flipped byte of that uncommitted tail, every flipped byte of the last
// committed block, and every flipped byte of the checkpoint itself.

// fileState is an archive's on-disk state at one instant: the data file
// and its checkpoint sidecar — what a crash would leave behind.
type fileState struct {
	data []byte
	ckpt []byte // nil: no checkpoint file
}

// captureFiles snapshots the archive's current durable state.
func captureFiles(t *testing.T, path string) fileState {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := fileState{data: data}
	if ck, err := os.ReadFile(CheckpointPath(path)); err == nil {
		st.ckpt = ck
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return st
}

// restoreFiles materializes a (possibly doctored) crash state at a fresh
// path and returns it.
func restoreFiles(t *testing.T, dir, name string, st fileState) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, st.data, 0o666); err != nil {
		t.Fatal(err)
	}
	if st.ckpt != nil {
		if err := os.WriteFile(CheckpointPath(path), st.ckpt, 0o666); err != nil {
			t.Fatal(err)
		}
	} else {
		os.Remove(CheckpointPath(path))
	}
	return path
}

// copyHead copies the head sidecar of the archive at from, when it has
// one, next to the archive at to — the part of a crash state captureFiles
// leaves out, so a matrix over data and checkpoint alone still sees the
// commits it perturbs.
func copyHead(t *testing.T, from, to string) {
	t.Helper()
	os.Remove(headPath(to))
	data, err := os.ReadFile(headPath(from))
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(headPath(to), data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// closeOut runs OpenAppend on the state, closes immediately, and returns
// the resulting closed-archive bytes — the canonical form of whatever the
// recovery decided the committed prefix was.
func closeOut(t *testing.T, dir, name string, st fileState) ([]byte, error) {
	t.Helper()
	path := restoreFiles(t, dir, name, st)
	w, err := OpenAppend(path)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(CheckpointPath(path)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived a clean Close (stat err %v)", err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out, nil
}

// seqMap derives a deterministic snapshot from its sequence number, so any
// committed prefix's exact content is predictable.
func seqMap(id wmap.MapID, i int) *wmap.Map {
	return testMap(id, at(5*i), i%101, (2*i)%101, (3*i)%101, (5*i)%101, (7*i)%101, (11*i)%101)
}

// TestOpenAppendMatchesBatch: a live archive built append-by-append and
// closed is byte-for-byte the archive the batch writer would have built
// from the same sequence — follow mode costs nothing in output fidelity,
// whatever the Sync cadence. Each schedule Syncs at random points of a
// stream with three interleaved maps, topology changes, rollups and event
// detection on, and some crash there: the writer is abandoned and a new
// one resumes from the data file, checkpoint and head it left.
func TestOpenAppendMatchesBatch(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 10; i++ {
		maps = append(maps, seqMap(wmap.Europe, i))
		if i%2 == 0 {
			maps = append(maps, seqMap(wmap.World, i))
		}
	}
	maps = append(maps, grownMap(wmap.Europe, at(5*10)))
	want := buildArchive(t, 4, maps...)

	path := filepath.Join(t.TempDir(), "live.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	for _, m := range maps {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("live-built archive differs from batch archive: %d vs %d bytes", len(got), len(want))
	}
	if _, err := os.Stat(CheckpointPath(path)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived Close (stat err %v)", err)
	}

	stream := syncStream()
	want = buildArchive(t, 16, stream...)
	dir := t.TempDir()
	for seed := uint64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		syncP, crashP := []float64{1, 0.5, 0.1}[seed%3], 0.0
		switch {
		case seed == 0:
			syncP = 0
		case seed >= 4:
			crashP = 0.05
		}
		path := filepath.Join(dir, fmt.Sprintf("sched%d.tsdb", seed))
		start := func(p string) *Writer {
			w, err := OpenAppend(p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			w.SetBlockPoints(16)
			return w
		}
		w, syncs, crashes := start(path), 0, 0
		for i, m := range stream {
			if err := w.Append(m); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
			if rng.Float64() >= syncP {
				continue
			}
			if err := w.Sync(); err != nil {
				t.Fatalf("seed %d: sync at %d: %v", seed, i, err)
			}
			syncs++
			if rng.Float64() < crashP {
				// The writer dies right after its Sync returned: everything
				// appended so far is durable, and a new writer picks up.
				crashes++
				next := filepath.Join(dir, fmt.Sprintf("sched%d-%d.tsdb", seed, crashes))
				restoreFiles(t, dir, filepath.Base(next), captureFiles(t, path))
				copyHead(t, path, next)
				path, w = next, start(next)
				if n := w.Stats().Snapshots; n != i+1 {
					t.Fatalf("seed %d: resumed writer holds %d snapshots, want %d", seed, n, i+1)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (%d syncs, %d crashes): live archive differs from batch: %d vs %d bytes", seed, syncs, crashes, len(got), len(want))
		}
		if _, err := os.Stat(headPath(path)); !os.IsNotExist(err) {
			t.Fatalf("seed %d: head survived Close (stat err %v)", seed, err)
		}
		t.Logf("seed %d: %d syncs, %d crashes", seed, syncs, crashes)
	}
	rd := openArchive(t, want)
	if s := rd.Stats(); s.Blocks < 8 || s.RollupBlocks == 0 || s.EventBlocks == 0 {
		t.Fatalf("stream exercises too little: %+v", s)
	}
}

// syncStream is a day of snapshots of three interleaved maps: Europe every
// tick with two topology changes and back, World every third tick, North
// America every seventh. Loads swing through the congestion thresholds, so
// the event log and the rollup tiers both get frames.
func syncStream() []*wmap.Map {
	var maps []*wmap.Map
	for i := 0; i < 300; i++ {
		m := seqMap(wmap.Europe, i)
		if (i >= 100 && i < 150) || (i >= 220 && i < 240) {
			m = grownMap(wmap.Europe, at(5*i))
			m.Links[0].LoadAB = wmap.Load(i % 101)
		}
		maps = append(maps, m)
		if i%3 == 0 {
			maps = append(maps, seqMap(wmap.World, i))
		}
		if i%7 == 0 {
			maps = append(maps, seqMap(wmap.NorthAmerica, i))
		}
	}
	return maps
}

// TestOpenAppendResumesClosedArchive: reopening a closed archive for
// append and extending it yields the same bytes as building the whole
// series in one writer. (The first segment must end on a block boundary:
// Close flushes a partial block, and that boundary is preserved on resume.)
func TestOpenAppendResumesClosedArchive(t *testing.T) {
	var first, second []*wmap.Map
	for i := 0; i < 8; i++ {
		first = append(first, seqMap(wmap.Europe, i))
	}
	for i := 8; i < 13; i++ {
		second = append(second, seqMap(wmap.Europe, i))
	}
	want := buildArchive(t, 4, append(append([]*wmap.Map(nil), first...), second...)...)

	path := filepath.Join(t.TempDir(), "resume.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	for _, m := range first {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(4)
	if lt, ok := w.LastTime(wmap.Europe); !ok || !lt.Equal(at(5*7)) {
		t.Fatalf("LastTime after resume = %v, %v", lt, ok)
	}
	if got := w.Stats().Snapshots; got != len(first) {
		t.Fatalf("resumed writer reports %d snapshots, want %d", got, len(first))
	}
	// The resumed prefix is re-offered (as a follow-mode catch-up pass
	// would): Append must reject it rather than double-archive.
	if err := w.Append(first[2]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("re-appending archived snapshot: err = %v, want ErrOutOfOrder", err)
	}
	for _, m := range second {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed archive differs from one-shot archive: %d vs %d bytes", len(got), len(want))
	}
}

// TestOpenAppendRejectsGarbage: a non-empty file that is neither
// checkpointed nor a valid closed archive must fail typed.
func TestOpenAppendRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"text.tsdb":  []byte("this is not an archive at all, sorry"),
		"magic.tsdb": []byte(headerMagic), // header only: no footer, no checkpoint
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		_, err := OpenAppend(path)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: OpenAppend err = %v, want *CorruptError", name, err)
		}
	}
}

// buildTornTailStates builds the two commit states the matrix perturbs:
// S1 (an earlier Sync) and S2 (a later Sync), with S2's data a strict
// byte extension of S1's.
func buildTornTailStates(t *testing.T) (s1, s2 fileState) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "torn.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(2)
	i := 0
	for ; i < 5; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	s1 = captureFiles(t, path)

	for ; i < 9; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(grownMap(wmap.Europe, at(5*i))); err != nil { // topology change: extra block
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	s2 = captureFiles(t, path)
	// The writer is abandoned here — from the matrix's point of view the
	// process crashed; the captured states are what the disk held.

	if len(s2.data) <= len(s1.data) || !bytes.Equal(s2.data[:len(s1.data)], s1.data) {
		t.Fatalf("commit S2 (%d bytes) is not a strict extension of S1 (%d bytes)", len(s2.data), len(s1.data))
	}
	return s1, s2
}

// TestTornTailMatrix is the exhaustive crash matrix. With S1's checkpoint
// on disk (the crash hit before S2's checkpoint replaced it), the bytes
// past S1's commit are an uncommitted tail: any truncation of it, and any
// single-byte corruption in it, must recover exactly S1. With S2's
// checkpoint on disk, any truncation below S2's commit is lost committed
// data and must fail typed.
func TestTornTailMatrix(t *testing.T) {
	s1, s2 := buildTornTailStates(t)
	dir := t.TempDir()

	// The canonical closed form of S1 — what every recovery in the matrix
	// must reproduce byte-for-byte.
	wantS1, err := closeOut(t, dir, "want1.tsdb", s1)
	if err != nil {
		t.Fatal(err)
	}
	wantS2, err := closeOut(t, dir, "want2.tsdb", s2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(wantS1, wantS2) {
		t.Fatal("S1 and S2 close to identical archives; matrix would prove nothing")
	}

	tail := s2.data[len(s1.data):]
	t.Logf("matrix: %d-byte committed prefix, %d-byte uncommitted tail", len(s1.data), len(tail))

	// Every truncation point of the uncommitted tail, S1's checkpoint:
	// recover exactly S1.
	for k := 0; k <= len(tail); k++ {
		st := fileState{data: s2.data[:len(s1.data)+k], ckpt: s1.ckpt}
		got, err := closeOut(t, dir, "trunc.tsdb", st)
		if err != nil {
			t.Fatalf("tail truncated at +%d: %v", k, err)
		}
		if !bytes.Equal(got, wantS1) {
			t.Fatalf("tail truncated at +%d: recovered archive differs from committed S1", k)
		}
	}

	// Every single-byte corruption of the uncommitted tail, S1's
	// checkpoint: the garbage is past the commit and must be discarded.
	for k := 0; k < len(tail); k++ {
		data := append([]byte(nil), s2.data...)
		data[len(s1.data)+k] ^= 0xFF
		got, err := closeOut(t, dir, "flip.tsdb", fileState{data: data, ckpt: s1.ckpt})
		if err != nil {
			t.Fatalf("tail byte +%d flipped: %v", k, err)
		}
		if !bytes.Equal(got, wantS1) {
			t.Fatalf("tail byte +%d flipped: recovered archive differs from committed S1", k)
		}
	}

	// Every truncation point inside the final committed region, S2's
	// checkpoint: committed data is missing — typed failure, never a
	// partial archive.
	for k := len(s1.data); k < len(s2.data); k++ {
		_, err := closeOut(t, dir, "lost.tsdb", fileState{data: s2.data[:k], ckpt: s2.ckpt})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("committed data truncated at %d: err = %v, want *CorruptError", k, err)
		}
	}

	// Every single-byte corruption of the last committed block (it ends
	// exactly at S2's commit offset): recovery re-verifies it and must
	// refuse. Earlier blocks are covered by read-time CRCs instead.
	ck2, err := readCheckpoint(CheckpointPath(restoreFiles(t, dir, "meta.tsdb", s2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := parseFooter(ck2.payload, 0, ck2.dataEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastOff := fd.blocks[0].offset
	for _, b := range fd.blocks {
		if b.offset > lastOff {
			lastOff = b.offset
		}
	}
	for k := lastOff; k < ck2.dataEnd; k++ {
		data := append([]byte(nil), s2.data...)
		data[k] ^= 0xFF
		_, err := closeOut(t, dir, "blockflip.tsdb", fileState{data: data, ckpt: s2.ckpt})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("committed block byte %d flipped: err = %v, want *CorruptError", k, err)
		}
	}
}

// TestResumeOverCorruptCommittedBlock: recovery re-verifies only the
// committed tail, so a raw block damaged deeper in the committed prefix
// first shows when the resumed writer replays it to rebuild its detectors
// and rollup accumulators. The resume must not fail: event detection,
// which replays every block, is always switched off; rollups, which replay
// only the points past their flushed frontier, are switched off only when
// the damaged block lies past that frontier. Either way the writer closes
// into an archive a reader opens.
func TestResumeOverCorruptCommittedBlock(t *testing.T) {
	// committed ends one block past a seal, so two sealed blocks lie past
	// the rollup frontier: the tail and one before it.
	const committed, total = 204, 300
	dir := t.TempDir()
	start := func(path string) *Writer {
		t.Helper()
		w, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		w.SetBlockPoints(4)
		// One tier, so the rollup frontier is that tier's and falls inside
		// the committed prefix.
		if err := w.SetRollupResolutions(time.Hour); err != nil {
			t.Fatal(err)
		}
		return w
	}
	path := filepath.Join(dir, "live.tsdb")
	w := start(path)
	for i := 0; i < committed; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	at0 := w.Stats()
	st := captureFiles(t, path)
	ck, err := readCheckpoint(CheckpointPath(path), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := parseFooter(ck.payload, 0, ck.dataEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontier := int64(-1)
	for _, m := range fd.rollups {
		frontier = max(frontier, m.lastPoint)
	}
	tail := fd.blocks[0].offset
	for _, b := range fd.blocks {
		tail = max(tail, b.offset)
	}
	before, past := -1, -1
	for i, b := range fd.blocks {
		switch {
		case b.lastUnix <= frontier && before < 0:
			before = i
		case b.lastUnix > frontier && b.offset != tail && past < 0:
			past = i
		}
	}
	if frontier < 0 || before < 0 || past < 0 {
		t.Fatalf("fixture lacks a block on each side of the rollup frontier (frontier %d, blocks %d/%d)", frontier, before, past)
	}

	// resume reopens the crash state with block bi flipped (bi < 0: intact),
	// appends the rest of the stream, and returns the closed writer's stats.
	resume := func(name string, bi int) ArchiveStats {
		t.Helper()
		data := append([]byte(nil), st.data...)
		if bi >= 0 {
			b := fd.blocks[bi]
			data[b.offset+4+int64(b.payloadLen)/2] ^= 0xFF
		}
		p := restoreFiles(t, dir, name, fileState{data: data, ckpt: st.ckpt})
		w := start(p)
		for i := committed; i < total; i++ {
			if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
				t.Fatalf("%s: append %d: %v", name, i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		out, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewReader(bytes.NewReader(out), int64(len(out))); err != nil {
			t.Fatalf("%s: closed archive does not open: %v", name, err)
		}
		return w.Stats()
	}

	clean := resume("clean.tsdb", -1)
	if clean.RollupBlocks <= at0.RollupBlocks || clean.EventBlocks <= at0.EventBlocks {
		t.Fatalf("intact resume wrote no new rollup or event frames (%+v after %+v); the test exercises nothing", clean, at0)
	}
	got := resume("before.tsdb", before)
	if got.EventBlocks != at0.EventBlocks {
		t.Errorf("block before the frontier: %d event frames, want detection off at %d", got.EventBlocks, at0.EventBlocks)
	}
	if got.RollupBlocks != clean.RollupBlocks {
		t.Errorf("block before the frontier: %d rollup blocks, want rollups kept (%d)", got.RollupBlocks, clean.RollupBlocks)
	}
	got = resume("past.tsdb", past)
	if got.EventBlocks != at0.EventBlocks {
		t.Errorf("block past the frontier: %d event frames, want detection off at %d", got.EventBlocks, at0.EventBlocks)
	}
	if got.RollupBlocks != at0.RollupBlocks {
		t.Errorf("block past the frontier: %d rollup blocks, want rollups off at %d", got.RollupBlocks, at0.RollupBlocks)
	}
}

// TestCheckpointFlipMatrix flips every byte of the checkpoint file itself.
// Allowed outcomes: a typed *CorruptError, or a recovery that still
// reproduces the committed state exactly (flips in the commit-version
// field change no data). A recovery producing anything else is the
// silent-wrong-read failure mode this protocol exists to exclude.
func TestCheckpointFlipMatrix(t *testing.T) {
	s1, s2 := buildTornTailStates(t)
	dir := t.TempDir()
	wantS2, err := closeOut(t, dir, "want.tsdb", s2)
	if err != nil {
		t.Fatal(err)
	}
	_ = s1

	for k := 0; k < len(s2.ckpt); k++ {
		ck := append([]byte(nil), s2.ckpt...)
		ck[k] ^= 0xFF
		got, err := closeOut(t, dir, "ckflip.tsdb", fileState{data: s2.data, ckpt: ck})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("checkpoint byte %d flipped: err = %v, want *CorruptError", k, err)
			}
			continue
		}
		if !bytes.Equal(got, wantS2) {
			t.Fatalf("checkpoint byte %d flipped: accepted AND altered the recovered archive", k)
		}
	}
}

// TestSyncVisibility: a tailing reader sees exactly the committed prefix —
// nothing before the first Sync, everything synced after Refresh, and
// never a torn or partial view in between.
func TestSyncVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vis.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetBlockPoints(2)
	for i := 0; i < 3; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if !rd.Live() {
		t.Fatal("reader does not report live")
	}
	if n := rd.Snapshots(wmap.Europe); n != 3 {
		t.Fatalf("reader sees %d snapshots after first sync, want 3", n)
	}
	fp1, v1 := rd.Fingerprint(), rd.Version()
	if v1 == 0 {
		t.Fatal("live reader reports version 0")
	}

	// Appended but not synced: invisible.
	if err := w.Append(seqMap(wmap.Europe, 3)); err != nil {
		t.Fatal(err)
	}
	if changed, err := rd.Refresh(); err != nil || changed {
		t.Fatalf("Refresh before sync: changed=%v err=%v", changed, err)
	}
	if n := rd.Snapshots(wmap.Europe); n != 3 {
		t.Fatalf("unsynced append became visible: %d snapshots", n)
	}

	// A cursor opened now pins the 3-snapshot state across the refresh.
	cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
	defer cur.Close()

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("Refresh after sync: changed=%v err=%v", changed, err)
	}
	if n := rd.Snapshots(wmap.Europe); n != 4 {
		t.Fatalf("reader sees %d snapshots after refresh, want 4", n)
	}
	if rd.Fingerprint() == fp1 {
		t.Error("fingerprint did not roll with the new commit")
	}
	if rd.Version() <= v1 {
		t.Errorf("version did not advance: %d -> %d", v1, rd.Version())
	}
	n := 0
	for cur.Next() {
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("pinned cursor yielded %d snapshots, want the 3 from its open-time state", n)
	}
}

// TestSyncEmptyArchive: the first Sync of a fresh archive — before any
// snapshot — commits a valid empty state, so a tailing reader (wmserve
// -live started alongside a follow-mode ingester) can open the file
// immediately and adopt the first real commit via Refresh.
func TestSyncEmptyArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reader cannot open the empty committed archive: %v", err)
	}
	defer rd.Close()
	if !rd.Live() || len(rd.Maps()) != 0 {
		t.Fatalf("empty live archive: live=%v maps=%v", rd.Live(), rd.Maps())
	}
	if err := w.Append(seqMap(wmap.Europe, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("Refresh after first snapshot: changed=%v err=%v", changed, err)
	}
	if n := rd.Snapshots(wmap.Europe); n != 1 {
		t.Fatalf("reader sees %d snapshots, want 1", n)
	}
}

// TestRefreshRejectsReplacedArchive: a different archive swapped in under
// the same path is not an extension — Refresh must refuse with
// ErrArchiveReplaced and keep serving the original state.
func TestRefreshRejectsReplacedArchive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(2)
	for i := 0; i < 4; i++ {
		if err := w.Append(seqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	w.Close()

	// Build an unrelated archive and move its files over the served path.
	other := filepath.Join(dir, "b.tsdb")
	w2, err := OpenAppend(other)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w2.Append(seqMap(wmap.World, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	st := captureFiles(t, other)
	w2.Close()
	restoreFiles(t, dir, "a.tsdb", st)

	if _, err := rd.Refresh(); !errors.Is(err, ErrArchiveReplaced) {
		t.Fatalf("Refresh over replaced archive: err = %v, want ErrArchiveReplaced", err)
	}
	if n := rd.Snapshots(wmap.Europe); n != 4 {
		t.Errorf("reader state disturbed by rejected refresh: %d snapshots", n)
	}
}

// TestClosedRefreshFlat: an idle Refresh of a closed archive compares the
// file's size and tail with the ones it opened and stops there, allocating
// the same over 16 blocks as over 1,024; a closed archive overwritten by a
// different closed archive of the same size is still refused.
func TestClosedRefreshFlat(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, first, blocks int) string {
		path := filepath.Join(dir, name)
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w.SetBlockPoints(1)
		for i := first; i < first+blocks; i++ {
			if err := w.Append(testMap(wmap.Europe, at(5*i), 10, 20, 30, 40, 50, 20)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allocs := func(blocks int) float64 {
		rd, err := OpenFile(build(fmt.Sprintf("idle%d.tsdb", blocks), 0, blocks))
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if n := rd.Stats().Blocks; n != blocks {
			t.Fatalf("fixture has %d blocks, want %d", n, blocks)
		}
		return testing.AllocsPerRun(20, func() {
			if changed, err := rd.Refresh(); err != nil || changed {
				t.Fatalf("idle refresh: changed=%v err=%v", changed, err)
			}
		})
	}
	few, many := allocs(16), allocs(1024)
	t.Logf("allocations per idle refresh: %.0f at 16 blocks, %.0f at 1,024", few, many)
	if few != many {
		t.Fatalf("an idle refresh allocates %.0f times at 16 blocks and %.0f at 1,024", few, many)
	}

	path := build("served.tsdb", 0, 4)
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	other, err := os.ReadFile(build("other.tsdb", 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(other)) {
		t.Fatalf("replacement of %d bytes for an archive of %v (%v): want the same size", len(other), fi.Size(), err)
	}
	if err := os.WriteFile(path, other, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Refresh(); !errors.Is(err, ErrArchiveReplaced) {
		t.Fatalf("Refresh over a replaced closed archive: err = %v, want ErrArchiveReplaced", err)
	}
	if n := rd.Snapshots(wmap.Europe); n != 4 {
		t.Errorf("reader state disturbed by rejected refresh: %d snapshots", n)
	}
}
