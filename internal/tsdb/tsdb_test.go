package tsdb

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

var base = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)

func at(min int) time.Time { return base.Add(time.Duration(min) * time.Minute) }

// testMap builds a snapshot with the standard test topology: two routers,
// one peering, and three links of which the last two are parallels sharing
// all four label strings (exercising LinkKey ordinals). loads supplies the
// six per-direction percentages in link order (AB, BA, AB, BA, ...).
func testMap(id wmap.MapID, t time.Time, loads ...int) *wmap.Map {
	if len(loads) != 6 {
		panic("testMap wants 6 loads")
	}
	m := &wmap.Map{
		ID:   id,
		Time: t,
		Nodes: []wmap.Node{
			{Name: "par-g1", Kind: wmap.Router},
			{Name: "fra-g1", Kind: wmap.Router},
			{Name: "AMS-IX", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1"},
			{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1"},
			{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1"},
		},
	}
	for i := range m.Links {
		m.Links[i].LoadAB = wmap.Load(loads[2*i])
		m.Links[i].LoadBA = wmap.Load(loads[2*i+1])
	}
	return m
}

// grownMap is testMap plus one extra router and link — a distinct topology.
func grownMap(id wmap.MapID, t time.Time) *wmap.Map {
	m := testMap(id, t, 1, 2, 3, 4, 5, 6)
	m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
	m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#1", LabelB: "#1", LoadAB: 7, LoadBA: 8})
	return m
}

// buildArchive writes maps through a fresh writer and returns the bytes.
func buildArchive(t *testing.T, blockPoints int, maps ...*wmap.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if blockPoints > 0 {
		w.SetBlockPoints(blockPoints)
	}
	for _, m := range maps {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openArchive(t *testing.T, data []byte) *Reader {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func TestRoundTrip(t *testing.T) {
	var want []*wmap.Map
	for i := 0; i < 10; i++ {
		want = append(want, testMap(wmap.Europe, at(5*i), i, 10+i, 20+i, 30+i, 40+i, 50+i))
	}
	// A second map interleaves freely with the first.
	var world []*wmap.Map
	for i := 0; i < 4; i++ {
		world = append(world, testMap(wmap.World, at(7*i), 0, 0, 100, 100, 50, 50))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.Append(want[i]); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			if err := w.Append(world[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd := openArchive(t, buf.Bytes())
	if got := rd.Maps(); len(got) != 2 {
		t.Fatalf("Maps = %v", got)
	}
	if n := rd.Snapshots(wmap.Europe); n != 10 {
		t.Errorf("europe snapshots = %d", n)
	}
	from, to, ok := rd.Bounds(wmap.Europe)
	if !ok || !from.Equal(at(0)) || !to.Equal(at(45)) {
		t.Errorf("bounds = %v..%v, %v", from, to, ok)
	}
	cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
	i := 0
	for cur.Next() {
		got := cur.Map()
		if !reflect.DeepEqual(got, &wmap.Map{
			ID: want[i].ID, Time: want[i].Time.UTC(),
			Nodes: want[i].Nodes, Links: want[i].Links,
		}) {
			t.Fatalf("snapshot %d diverges:\ngot  %+v\nwant %+v", i, got, want[i])
		}
		i++
	}
	if err := cur.Err(); err != nil || i != 10 {
		t.Fatalf("cursor: %d snapshots, err %v", i, err)
	}
}

func TestWriterDeterministic(t *testing.T) {
	mk := func() []byte {
		var maps []*wmap.Map
		for i := 0; i < 7; i++ {
			maps = append(maps, testMap(wmap.Europe, at(5*i), i, i, i, i, i, i))
			maps = append(maps, testMap(wmap.World, at(5*i), 9, 9, 9, 9, 9, 9))
		}
		return buildArchive(t, 3, maps...)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Error("identical append sequences produced different archives")
	}
}

func TestAppendValidation(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Append(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if err := w.Append(&wmap.Map{Time: at(0)}); err == nil {
		t.Error("snapshot without map id accepted")
	}
	m := testMap(wmap.Europe, time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC), 0, 0, 0, 0, 0, 0)
	if err := w.Append(m); err == nil {
		t.Error("pre-1970 snapshot accepted")
	}
	bad := testMap(wmap.Europe, at(0), 0, 0, 0, 0, 0, 0)
	bad.Links[1].LoadAB = 101
	if err := w.Append(bad); err == nil {
		t.Error("load > 100 accepted")
	}
	weird := testMap(wmap.Europe, at(0), 0, 0, 0, 0, 0, 0)
	weird.Nodes[0].Kind = "satellite"
	if err := w.Append(weird); err == nil {
		t.Error("unsupported node kind accepted")
	}

	if err := w.Append(testMap(wmap.Europe, at(0), 1, 2, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testMap(wmap.Europe, at(0), 1, 2, 3, 4, 5, 6)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("same-time append = %v, want ErrOutOfOrder", err)
	}
	if err := w.Append(testMap(wmap.Europe, at(-5), 1, 2, 3, 4, 5, 6)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("backward append = %v, want ErrOutOfOrder", err)
	}
	// Other maps keep their own clock.
	if err := w.Append(testMap(wmap.World, at(0), 1, 2, 3, 4, 5, 6)); err != nil {
		t.Errorf("independent map clock: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testMap(wmap.Europe, at(10), 1, 2, 3, 4, 5, 6)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Close = %v, want ErrClosed", err)
	}
}

func TestBlockRotationAndTopologyDedup(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 10; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i, i, i, i, i, i))
	}
	// Topology change mid-stream closes the open block early...
	maps = append(maps, grownMap(wmap.Europe, at(50)))
	// ...and returning to the original topology reuses its dictionary entry.
	maps = append(maps, testMap(wmap.Europe, at(55), 1, 1, 1, 1, 1, 1))

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockPoints(4)
	for _, m := range maps {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	// 10 same-topology points at 4 per block = blocks of 4+4+2, then the
	// grown topology and the return each force their own block: 5 total.
	if st.Blocks != 5 {
		t.Errorf("blocks = %d, want 5", st.Blocks)
	}
	if st.Topologies != 2 {
		t.Errorf("topologies = %d, want 2 (dedup across the gap)", st.Topologies)
	}
	if st.Snapshots != len(maps) {
		t.Errorf("snapshots = %d, want %d", st.Snapshots, len(maps))
	}

	rd := openArchive(t, buf.Bytes())
	cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
	n := 0
	for cur.Next() {
		got := cur.Map()
		if len(got.Links) != len(maps[n].Links) {
			t.Fatalf("snapshot %d: %d links, want %d", n, len(got.Links), len(maps[n].Links))
		}
		n++
	}
	if err := cur.Err(); err != nil || n != len(maps) {
		t.Fatalf("read back %d snapshots, err %v", n, err)
	}
}

func TestCursorRange(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 20; i++ {
		maps = append(maps, testMap(wmap.Europe, at(5*i), i%100, 0, 0, 0, 0, 0))
	}
	rd := openArchive(t, buildArchive(t, 4, maps...)) // 5 blocks of 4

	collect := func(from, to time.Time) []time.Time {
		var out []time.Time
		cur := rd.CursorParallel(context.Background(), wmap.Europe, from, to, 1)
		for cur.Next() {
			out = append(out, cur.Map().Time)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Inclusive on both ends, mid-block on both sides.
	got := collect(at(17), at(62))
	if len(got) != 9 || !got[0].Equal(at(20)) || !got[len(got)-1].Equal(at(60)) {
		t.Errorf("range [17, 62] = %v", got)
	}
	// Exact-match bounds are included.
	got = collect(at(25), at(25))
	if len(got) != 1 || !got[0].Equal(at(25)) {
		t.Errorf("point range = %v", got)
	}
	// Ranges outside the data are empty.
	if got := collect(at(1000), at(2000)); got != nil {
		t.Errorf("past-the-end range = %v", got)
	}
	if got := collect(at(-100), at(-50)); got != nil {
		t.Errorf("pre-history range = %v", got)
	}
	// Unknown maps yield an empty, error-free cursor.
	cur := rd.CursorParallel(context.Background(), wmap.AsiaPacific, time.Time{}, time.Time{}, 1)
	if cur.Next() || cur.Err() != nil {
		t.Errorf("unknown-map cursor: next %v, err %v", cur.Next(), cur.Err())
	}
}

func TestSnapshotAt(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 6; i++ {
		maps = append(maps, testMap(wmap.Europe, at(10*i), i, 0, 0, 0, 0, 0))
	}
	rd := openArchive(t, buildArchive(t, 2, maps...))

	m, err := rd.SnapshotAt(wmap.Europe, at(25)) // between 20 and 30
	if err != nil || !m.Time.Equal(at(20)) {
		t.Errorf("SnapshotAt(25) = %v, %v; want the 20-minute snapshot", m, err)
	}
	m, err = rd.SnapshotAt(wmap.Europe, at(50)) // exact last
	if err != nil || !m.Time.Equal(at(50)) {
		t.Errorf("SnapshotAt(50) = %v, %v", m, err)
	}
	m, err = rd.SnapshotAt(wmap.Europe, at(500)) // far future clamps to last
	if err != nil || !m.Time.Equal(at(50)) {
		t.Errorf("SnapshotAt(500) = %v, %v", m, err)
	}
	if _, err = rd.SnapshotAt(wmap.Europe, at(-1)); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("SnapshotAt before first = %v, want ErrNoSnapshot", err)
	}
	if _, err = rd.SnapshotAt(wmap.World, at(0)); !errors.Is(err, ErrUnknownMap) {
		t.Errorf("SnapshotAt unknown map = %v, want ErrUnknownMap", err)
	}
}

func TestLinkSeriesAndOrdinals(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		// The two parallel links carry distinct loads so mixing up their
		// columns (the ordinal's job) is observable.
		maps = append(maps, testMap(wmap.Europe, at(5*i), 10+i, 20+i, 30+i, 40+i, 50+i, 60+i))
	}
	rd := openArchive(t, buildArchive(t, 3, maps...))

	keys := LinkKeysOf(maps[0])
	if keys[1].Ordinal != 0 || keys[2].Ordinal != 1 {
		t.Fatalf("parallel ordinals = %d, %d", keys[1].Ordinal, keys[2].Ordinal)
	}
	for ki, wantBase := range map[int][2]int{1: {30, 40}, 2: {50, 60}} {
		ab, ba, err := linkSeries(context.Background(), rd, wmap.Europe, keys[ki], time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if ab.Len() != 8 || ba.Len() != 8 {
			t.Fatalf("key %d: series lengths %d, %d", ki, ab.Len(), ba.Len())
		}
		for i, p := range ab.Points() {
			if p.V != float64(wantBase[0]+i) || !p.T.Equal(at(5*i)) {
				t.Fatalf("key %d ab[%d] = %+v", ki, i, p)
			}
		}
		for i, p := range ba.Points() {
			if p.V != float64(wantBase[1]+i) {
				t.Fatalf("key %d ba[%d] = %+v", ki, i, p)
			}
		}
	}

	// Range restriction decodes only what overlaps.
	ab, _, err := linkSeries(context.Background(), rd, wmap.Europe, keys[0], at(10), at(20))
	if err != nil || ab.Len() != 3 {
		t.Errorf("ranged series len = %d, err %v", ab.Len(), err)
	}

	if _, _, err := linkSeries(context.Background(), rd, wmap.Europe, LinkKey{A: "nope", B: "AMS-IX"}, time.Time{}, time.Time{}); !errors.Is(err, ErrUnknownLink) {
		t.Errorf("unknown key = %v, want ErrUnknownLink", err)
	}
	if _, _, err := linkSeries(context.Background(), rd, wmap.World, keys[0], time.Time{}, time.Time{}); !errors.Is(err, ErrUnknownMap) {
		t.Errorf("unknown map = %v, want ErrUnknownMap", err)
	}

	// The stable API id resolves back to the same map and key.
	for _, k := range keys {
		id := k.ID(wmap.Europe)
		mid, got, ok := rd.ResolveLinkID(id)
		if !ok || mid != wmap.Europe || got != k {
			t.Errorf("ResolveLinkID(%s) = %s, %+v, %v; want europe %+v", id, mid, got, ok, k)
		}
	}
	if _, _, ok := rd.ResolveLinkID("ffffffffffffffff"); ok {
		t.Error("bogus link id resolved")
	}
}

func TestEmptyArchive(t *testing.T) {
	rd := openArchive(t, buildArchive(t, 0))
	if got := rd.Maps(); len(got) != 0 {
		t.Errorf("Maps = %v", got)
	}
	if _, err := rd.SnapshotAt(wmap.Europe, at(0)); !errors.Is(err, ErrUnknownMap) {
		t.Errorf("SnapshotAt on empty archive = %v", err)
	}
}

// TestEveryByteFlipDetected flips each byte of a small archive in turn and
// requires the reader to reject the mutation with *CorruptError — at open
// or, for block payload damage, when the cursor decodes the block. No
// mutation may panic or pass silently (CRC32 catches every single-byte
// change in checksummed regions; everything else is structurally validated).
func TestEveryByteFlipDetected(t *testing.T) {
	var maps []*wmap.Map
	for i := 0; i < 6; i++ {
		// Loads sweep across the congestion thresholds so the archive also
		// carries event frames — the matrix must cover those too.
		maps = append(maps, testMap(wmap.Europe, at(5*i), 20*i, i, i, i, i, i))
	}
	maps = append(maps, grownMap(wmap.Europe, at(30)))
	data := buildArchive(t, 3, maps...)

	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		rd, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: open error %v is not *CorruptError", i, err)
			}
			continue
		}
		detected := false
		for _, id := range rd.Maps() {
			cur := rd.CursorParallel(context.Background(), id, time.Time{}, time.Time{}, 1)
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: cursor error %v is not *CorruptError", i, err)
				}
				detected = true
			}
		}
		// Cursor walks never touch rollup or event frames; decode each one
		// too so flips inside them must also surface typed.
		st := rd.st()
		for ri := range st.rollups {
			if _, err := decodeRollupAt(rd.r, st.size, &st.rollups[ri], nil); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: rollup decode error %v is not *CorruptError", i, err)
				}
				detected = true
			}
		}
		for ei := range st.events {
			if _, err := decodeEventsAt(rd.r, st.size, &st.events[ei], st.strs); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: event decode error %v is not *CorruptError", i, err)
				}
				detected = true
			}
		}
		if !detected {
			t.Errorf("flip at byte %d went undetected", i)
		}
	}
}

// TestEveryTruncationDetected cuts the archive at every length and requires
// a typed error — a truncated or header-only file must never open.
func TestEveryTruncationDetected(t *testing.T) {
	data := buildArchive(t, 3,
		testMap(wmap.Europe, at(0), 70, 2, 3, 4, 5, 6), // congested: an event frame rides along
		testMap(wmap.Europe, at(5), 75, 3, 4, 5, 6, 7),
	)
	for n := 0; n < len(data); n++ {
		_, err := NewReader(bytes.NewReader(data[:n]), int64(n))
		if err == nil {
			t.Fatalf("truncation to %d bytes opened successfully", n)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d: error %v is not *CorruptError", n, err)
		}
	}
}

func TestOpenFile(t *testing.T) {
	path := t.TempDir() + "/a.tsdb"
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testMap(wmap.Europe, at(0), 1, 2, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if n := rd.Snapshots(wmap.Europe); n != 1 {
		t.Errorf("snapshots = %d", n)
	}
}

// linkKeysReference is the original quadratic ordinal rule: a link's
// ordinal is the number of earlier links matching its four strings.
func linkKeysReference(links []wmap.Link) []LinkKey {
	out := make([]LinkKey, len(links))
	for i, l := range links {
		k := LinkKey{A: l.A, B: l.B, LabelA: l.LabelA, LabelB: l.LabelB}
		for j := 0; j < i; j++ {
			if k.matches(links[j]) {
				k.Ordinal++
			}
		}
		out[i] = k
	}
	return out
}

// TestLinkKeysMatchesReference: over random link lists drawn from a small
// string pool — so (A, B, LabelA, LabelB) tuples repeat often and parallel
// links reach ordinals of 2 and more — linkKeys assigns exactly the
// reference's keys.
func TestLinkKeysMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	nodes := []string{"par-g1", "fra-g1", "AMS-IX"}
	labels := []string{"#1", "#2"}
	maxOrd := 0
	for trial := 0; trial < 200; trial++ {
		links := make([]wmap.Link, rng.Intn(120))
		for i := range links {
			links[i] = wmap.Link{
				A: nodes[rng.Intn(len(nodes))], B: nodes[rng.Intn(len(nodes))],
				LabelA: labels[rng.Intn(len(labels))], LabelB: labels[rng.Intn(len(labels))],
			}
		}
		got, want := linkKeys(links), linkKeysReference(links)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: linkKeys = %v, want %v", trial, got, want)
		}
		for _, k := range got {
			maxOrd = max(maxOrd, k.Ordinal)
		}
	}
	if maxOrd < 2 {
		t.Fatalf("largest ordinal %d: no parallel link at ordinal ≥ 2 was compared", maxOrd)
	}
}
