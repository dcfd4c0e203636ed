package tsdb

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// FuzzBlockReader throws arbitrary bytes at the archive reader: any input —
// random garbage, truncated archives, bit-flipped valid files — must either
// open and iterate cleanly or fail with *CorruptError. A panic or an
// untyped error is a bug; the reader's bounds-checked decoder and CRC
// validation are what this fuzzes.
func FuzzBlockReader(f *testing.F) {
	// Seed with a real archive and characteristic damage so the fuzzer
	// starts inside the format rather than rediscovering the magic.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockPoints(3)
	mk := func(id wmap.MapID, min, load int) *wmap.Map {
		return &wmap.Map{
			ID:   id,
			Time: time.Date(2020, 7, 1, 0, min, 0, 0, time.UTC),
			Nodes: []wmap.Node{
				{Name: "par-g1", Kind: wmap.Router},
				{Name: "AMS-IX", Kind: wmap.Peering},
			},
			Links: []wmap.Link{
				{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1",
					LoadAB: wmap.Load(load), LoadBA: wmap.Load(100 - load)},
			},
		}
	}
	for i := 0; i < 7; i++ {
		if err := w.Append(mk(wmap.Europe, 5*i, 10*i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(headerMagic)])
	f.Add([]byte(headerMagic + tailMagic))
	f.Add([]byte{})
	damaged := append([]byte(nil), valid...)
	damaged[len(damaged)/2] ^= 0x40
	f.Add(damaged)

	// A rollup-bearing archive: the span seals 1h buckets and a topology
	// change flushes fragment blocks, so the footer carries a v2 rollup
	// index and rollup frames for the fuzzer to mutate.
	var rbuf bytes.Buffer
	rw := NewWriter(&rbuf)
	rw.SetBlockPoints(8)
	for i := 0; i < 20; i++ {
		m := mk(wmap.Europe, 5*i, (3*i)%101)
		if i >= 10 {
			m.Nodes = append(m.Nodes, wmap.Node{Name: "fra-g1", Kind: wmap.Router})
			m.Links = append(m.Links, wmap.Link{A: "par-g1", B: "fra-g1",
				LabelA: "#2", LabelB: "#2", LoadAB: 5, LoadBA: 6})
		}
		if err := rw.Append(m); err != nil {
			f.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		f.Fatal(err)
	}
	rollupSeed := rbuf.Bytes()
	f.Add(rollupSeed)
	rdam := append([]byte(nil), rollupSeed...)
	rdam[len(rdam)-40] ^= 0x01 // inside the footer's rollup index region
	f.Add(rdam)

	// The first seed's loads sweep past the congestion threshold, so both
	// archives above already carry event frames and a v3 event index. Park
	// the fuzzer on the index too: the event index sits at the very end of
	// the footer payload, just before the tail.
	edam := append([]byte(nil), valid...)
	edam[len(edam)-tailLen-2] ^= 0x01
	f.Add(edam)

	// Mid-append states: a committed prefix with no footer, plus variants
	// with an uncommitted tail — what a crashed live writer leaves on disk.
	// NewReader sees no tail magic, so these must fail typed; as seeds they
	// park the fuzzer one mutation away from the live-format boundary.
	livePath := filepath.Join(f.TempDir(), "live.tsdb")
	lw, err := OpenAppend(livePath)
	if err != nil {
		f.Fatal(err)
	}
	lw.SetBlockPoints(3)
	for i := 0; i < 5; i++ {
		if err := lw.Append(mk(wmap.Europe, 5*i, 7*i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := lw.Sync(); err != nil {
		f.Fatal(err)
	}
	liveData, err := os.ReadFile(livePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), liveData...))
	f.Add(append(append([]byte(nil), liveData...), 0xde, 0xad, 0xbe, 0xef))
	// Committed prefix wearing a plausible-looking closed-archive tail.
	f.Add(append(append([]byte(nil), liveData...), valid[len(valid)-tailLen:]...))
	if err := lw.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("NewReader error %v is not *CorruptError", err)
			}
			return
		}
		for _, id := range rd.Maps() {
			if _, _, ok := rd.Bounds(id); !ok {
				t.Fatalf("listed map %s has no bounds", id)
			}
			cur := rd.CursorParallel(context.Background(), id, time.Time{}, time.Time{}, 1)
			n := 0
			for cur.Next() {
				if m := cur.MapView().Clone(); m == nil || m.ID != id {
					t.Fatalf("cursor yielded map %+v for %s", m, id)
				}
				n++
			}
			if err := cur.Err(); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("cursor error %v is not *CorruptError", err)
				}
			} else if n != rd.Snapshots(id) {
				t.Fatalf("%s: cursor yielded %d snapshots, index says %d", id, n, rd.Snapshots(id))
			}
			if _, err := rd.SnapshotAt(id, time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) && !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("SnapshotAt error %v is neither *CorruptError nor ErrNoSnapshot", err)
				}
			}
			if _, err := rd.RollupTotals(context.Background(), id, time.Hour, time.Time{}, time.Time{}); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) && !errors.Is(err, ErrNoRollup) {
					t.Fatalf("RollupTotals error %v is neither *CorruptError nor ErrNoRollup", err)
				}
			}
		}
		// Every rollup frame the footer indexes must decode or fail typed —
		// a flipped byte anywhere in a frame or its index entry is either
		// caught here or already rejected by parseFooter above.
		st := rd.st()
		for ri := range st.rollups {
			if _, err := decodeRollupAt(rd.r, st.size, &st.rollups[ri], nil); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("rollup decode error %v is not *CorruptError", err)
				}
			}
		}
		// Likewise every indexed event frame, and the query path over them.
		for ei := range st.events {
			if _, err := decodeEventsAt(rd.r, st.size, &st.events[ei], st.strs); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("event decode error %v is not *CorruptError", err)
				}
			}
		}
		if _, err := rd.Events(context.Background(), EventFilter{}); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Events error %v is not *CorruptError", err)
			}
		}
	})
}

// FuzzAppendRecovery throws arbitrary crash states — a data file plus an
// optional checkpoint sidecar and an optional head sidecar — at OpenAppend. Whatever the bytes, recovery
// must either fail with *CorruptError or accept the state. A non-empty
// accepted state must also open for reading, with the writer's snapshot,
// block and topology counts, and must Close into a well-formed archive
// (the footer parses, the writer can resume it) whose reads fail only
// typed. Panics, untyped errors, and recoveries that produce unopenable
// archives are the bugs this hunts.
func FuzzAppendRecovery(f *testing.F) {
	// Seed with real crash states from a live writer: two commits, the
	// second a strict extension of the first.
	mk := func(min, load int) *wmap.Map {
		return &wmap.Map{
			ID:   wmap.Europe,
			Time: time.Date(2020, 7, 1, 0, min, 0, 0, time.UTC),
			Nodes: []wmap.Node{
				{Name: "par-g1", Kind: wmap.Router},
				{Name: "AMS-IX", Kind: wmap.Peering},
			},
			Links: []wmap.Link{
				{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1",
					LoadAB: wmap.Load(load), LoadBA: wmap.Load(100 - load)},
			},
		}
	}
	seedPath := filepath.Join(f.TempDir(), "seed.tsdb")
	w, err := OpenAppend(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	w.SetBlockPoints(2)
	snap := func() (data, ckpt, head []byte) {
		if err := w.Sync(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(seedPath)
		if err != nil {
			f.Fatal(err)
		}
		ckpt, err = os.ReadFile(CheckpointPath(seedPath))
		if err != nil {
			f.Fatal(err)
		}
		head, err = os.ReadFile(headPath(seedPath))
		if err != nil {
			f.Fatal(err)
		}
		return data, ckpt, head
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(mk(5*i, 10*i)); err != nil {
			f.Fatal(err)
		}
	}
	data1, ckpt1, head1 := snap()
	for i := 3; i < 6; i++ {
		if err := w.Append(mk(5*i, 10*i)); err != nil {
			f.Fatal(err)
		}
	}
	data2, ckpt2, head2 := snap()
	// A topology change retires the rollup run and flushes a fragment frame
	// with its commit: this state's tail holds rollup frames — and, with the
	// load crossing the congestion threshold, an event frame — exercising the
	// contiguity and checksum checks of verifyTailBlock over every frame kind.
	grown := mk(5*6, 60)
	grown.Nodes = append(grown.Nodes, wmap.Node{Name: "fra-g1", Kind: wmap.Router})
	grown.Links = append(grown.Links, wmap.Link{A: "par-g1", B: "fra-g1",
		LabelA: "#2", LabelB: "#2", LoadAB: 7, LoadBA: 8})
	if err := w.Append(grown); err != nil {
		f.Fatal(err)
	}
	data3, ckpt3, head3 := snap()
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	closed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(data1, ckpt1, head1, true)
	f.Add(data2, ckpt2, head2, true)
	f.Add(data2, ckpt1, head1, true)         // torn tail: old commit, newer uncommitted bytes
	f.Add(data1, ckpt2, head2, true)         // committed data lost
	f.Add(data3, ckpt3, head3, true)         // commit whose tail carries rollup fragment frames
	f.Add(data3, ckpt2, head2, true)         // torn tail including uncommitted rollup frames
	f.Add(closed, []byte{}, []byte{}, false) // clean closed archive, no sidecar
	f.Add(closed, ckpt2, []byte{}, true)     // stale sidecar next to a closed archive
	f.Add([]byte(headerMagic), ckpt1, []byte{}, true)
	f.Add([]byte{}, []byte{}, []byte{}, false)
	f.Add(data2, ckpt2, head2[:len(head2)-3], true) // torn head frame
	f.Add(data2, ckpt2, head1, true)                // head of an earlier commit
	f.Add(data3, ckpt3, head2, true)                // head whose points a later seal covers
	f.Add(data1, ckpt1, head3, true)                // head referencing entries the commit lacks
	f.Add(closed, []byte{}, head3, false)           // stale head next to a closed archive

	f.Fuzz(func(t *testing.T, data, ckpt, head []byte, hasCkpt bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.tsdb")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		if hasCkpt {
			if err := os.WriteFile(CheckpointPath(path), ckpt, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if len(head) > 0 {
			if err := os.WriteFile(headPath(path), head, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		// Open the crash state for reading before recovery truncates it:
		// reader and writer load committed state through one loader, so
		// whatever OpenAppend accepts, OpenFile accepts too.
		rd0, rerr := OpenFile(path)
		if rerr == nil {
			defer rd0.Close()
		}
		w, err := OpenAppend(path)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("OpenAppend error %v is not *CorruptError", err)
			}
			return
		}
		if len(data) > 0 {
			if rerr != nil {
				t.Fatalf("OpenAppend accepted a state OpenFile rejects: %v", rerr)
			}
			rs, ws := rd0.Stats(), w.Stats()
			if rs.Snapshots != ws.Snapshots || rs.Blocks != ws.Blocks || rs.Topologies != ws.Topologies {
				t.Fatalf("reader stats %+v disagree with the resumed writer's %+v", rs, ws)
			}
		}
		// Recovery accepted the state: it must close into an archive the
		// reader opens, and whose reads only ever fail typed. (Recovery
		// re-verifies the final committed block; earlier block corruption
		// is caught by per-block CRCs at read time.)
		if err := w.Close(); err != nil {
			t.Fatalf("Close after accepted recovery: %v", err)
		}
		rd, err := OpenFile(path)
		if err != nil {
			t.Fatalf("recovered archive does not open: %v", err)
		}
		defer rd.Close()
		for _, id := range rd.Maps() {
			cur := rd.CursorParallel(context.Background(), id, time.Time{}, time.Time{}, 1)
			for cur.Next() {
				if m := cur.MapView().Clone(); m == nil || m.ID != id {
					t.Fatalf("cursor yielded map %+v for %s", m, id)
				}
			}
			if err := cur.Err(); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("cursor error %v is not *CorruptError", err)
				}
			}
		}
		if _, err := rd.Events(context.Background(), EventFilter{}); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Events error %v is not *CorruptError", err)
			}
		}
		// And the closed form must itself be resumable.
		w2, err := OpenAppend(path)
		if err != nil {
			t.Fatalf("recovered archive does not resume: %v", err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("resumed archive does not close: %v", err)
		}
	})
}

// FuzzHeadRecovery holds a live archive's data file and checkpoint fixed
// and throws arbitrary head sidecars at it. OpenFile and OpenAppend must
// agree: both refuse the head with a *CorruptError, or both accept it with
// the same snapshot count — the committed ones plus whatever whole frames
// replay. An accepted state closes into an archive that opens and reads
// back exactly the snapshots the writer reported.
func FuzzHeadRecovery(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.tsdb")
	w, err := OpenAppend(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	w.SetBlockPoints(4)
	for i := 0; i < 11; i++ {
		if err := w.Append(evSeqMap(wmap.Europe, i)); err != nil {
			f.Fatal(err)
		}
		if i%3 == 0 {
			if err := w.Append(seqMap(wmap.World, i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(CheckpointPath(seedPath))
	if err != nil {
		f.Fatal(err)
	}
	head, err := os.ReadFile(headPath(seedPath))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(head)
	f.Add(head[:len(head)-5])
	f.Add(head[:headHeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, head []byte) {
		path := filepath.Join(t.TempDir(), "a.tsdb")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(path), ckpt, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(headPath(path), head, 0o666); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		rd0, rerr := OpenFile(path)
		if rerr == nil {
			defer rd0.Close()
		} else if !errors.As(rerr, &ce) {
			t.Fatalf("OpenFile error %v is not *CorruptError", rerr)
		}
		w, err := OpenAppend(path)
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("OpenAppend error %v is not *CorruptError", err)
			}
			if rerr == nil {
				t.Fatalf("OpenAppend refused a head OpenFile accepts: %v", err)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("OpenAppend accepted a head OpenFile refuses: %v", rerr)
		}
		want := w.Stats().Snapshots
		if got := rd0.Stats().Snapshots; got != want {
			t.Fatalf("reader shows %d snapshots, the resumed writer %d", got, want)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close after accepted recovery: %v", err)
		}
		rd, err := OpenFile(path)
		if err != nil {
			t.Fatalf("recovered archive does not open: %v", err)
		}
		defer rd.Close()
		n := 0
		for _, id := range rd.Maps() {
			cur := rd.CursorParallel(context.Background(), id, time.Time{}, time.Time{}, 1)
			for cur.Next() {
				n++
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("cursor over the closed archive: %v", err)
			}
		}
		if n != want {
			t.Fatalf("closed archive yields %d snapshots, the writer held %d", n, want)
		}
	})
}
