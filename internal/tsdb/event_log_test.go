package tsdb

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// The event-log battery: write-time detection persisted in the archive must
// round-trip exactly, survive crash/restart byte-identically, and serve
// filtered queries through the same cache and corruption discipline as raw
// and rollup blocks.

// congestion onset (load >= 60) on link 0 AB at t=5, clear (load <= 45)
// at t=10 — the minimal two-event corpus.
func eventMaps() []*wmap.Map {
	return []*wmap.Map{
		testMap(wmap.Europe, at(0), 50, 10, 20, 30, 40, 10),
		testMap(wmap.Europe, at(5), 70, 10, 20, 30, 40, 10),
		testMap(wmap.Europe, at(10), 30, 10, 20, 30, 40, 10),
	}
}

func TestEventRoundTrip(t *testing.T) {
	rd := openArchive(t, buildArchive(t, 0, eventMaps()...))
	if n := rd.EventFrames(); n != 1 {
		t.Fatalf("EventFrames = %d, want 1", n)
	}
	if got := rd.Stats().EventBlocks; got != 1 {
		t.Fatalf("Stats.EventBlocks = %d, want 1", got)
	}
	got, err := rd.Events(context.Background(), EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	// Congestion events are directional: one endpoint-ordered label.
	want := []events.Event{
		{Map: wmap.Europe, Type: events.TypeCongestionOnset, Time: at(5), A: "par-g1", B: "fra-g1", LabelA: "#1", Load: 70},
		{Map: wmap.Europe, Type: events.TypeCongestionClear, Time: at(10), A: "par-g1", B: "fra-g1", LabelA: "#1", Load: 30},
	}
	for i := range want {
		want[i].Summary = want[i].Summarize() // decoded events carry prebuilt summaries
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events diverge:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestEventFilters(t *testing.T) {
	maps := eventMaps()
	// A second map contributes its own onset at t=7.
	maps = append(maps,
		testMap(wmap.World, at(0), 10, 10, 10, 10, 10, 10),
		testMap(wmap.World, at(7), 90, 10, 10, 10, 10, 10),
	)
	rd := openArchive(t, buildArchive(t, 0, maps...))
	ctx := context.Background()

	all, err := rd.Events(ctx, EventFilter{})
	if err != nil || len(all) != 3 {
		t.Fatalf("all events = %v, %v", all, err)
	}
	// Global ordering is by change time across maps.
	if !all[0].Time.Equal(at(5)) || !all[1].Time.Equal(at(7)) || !all[2].Time.Equal(at(10)) {
		t.Fatalf("events out of time order: %+v", all)
	}

	onsets, err := rd.Events(ctx, EventFilter{Types: []events.Type{events.TypeCongestionOnset}})
	if err != nil || len(onsets) != 2 {
		t.Fatalf("onset filter = %v, %v", onsets, err)
	}
	world, err := rd.Events(ctx, EventFilter{Map: wmap.World})
	if err != nil || len(world) != 1 || world[0].Map != wmap.World {
		t.Fatalf("map filter = %v, %v", world, err)
	}
	ranged, err := rd.Events(ctx, EventFilter{From: at(6), To: at(8)})
	if err != nil || len(ranged) != 1 || !ranged[0].Time.Equal(at(7)) {
		t.Fatalf("time filter = %v, %v", ranged, err)
	}
	if _, err := rd.Events(ctx, EventFilter{Map: wmap.AsiaPacific}); !errors.Is(err, ErrUnknownMap) {
		t.Fatalf("unknown map = %v, want ErrUnknownMap", err)
	}
	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := rd.Events(ctx2, EventFilter{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query = %v, want context.Canceled", err)
	}
}

func TestEventDetectionDisabled(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.SetEventDetection(false, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range eventMaps() {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SetEventDetection(true, nil); err == nil {
		t.Fatal("SetEventDetection accepted after the first append")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd := openArchive(t, buf.Bytes())
	if n := rd.EventFrames(); n != 0 {
		t.Fatalf("disabled detection still wrote %d event frames", n)
	}
	evs, err := rd.Events(context.Background(), EventFilter{})
	if err != nil || len(evs) != 0 {
		t.Fatalf("Events on event-less archive = %v, %v", evs, err)
	}
}

func TestEventUpgradeConfirmedRoundTrip(t *testing.T) {
	db := peeringdb.New()
	for _, rec := range []peeringdb.Record{
		{Peering: "AMS-IX", Network: "OVH", Gbps: 400, Updated: base.AddDate(0, -1, 0)},
		{Peering: "AMS-IX", Network: "OVH", Gbps: 500, Updated: at(30)},
	} {
		if err := db.Announce(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.SetEventDetection(true, db); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testMap(wmap.Europe, at(0), 10, 10, 20, 20, 30, 30)); err != nil {
		t.Fatal(err)
	}
	// A third parallel toward the peering appears: an upgrade candidate the
	// PeeringDB window confirms at 400 Gbps.
	grown := testMap(wmap.Europe, at(5), 10, 10, 20, 20, 30, 30)
	grown.Links = append(grown.Links, wmap.Link{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1"})
	if err := w.Append(grown); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd := openArchive(t, buf.Bytes())
	got, err := rd.Events(context.Background(), EventFilter{Types: []events.Type{events.TypeUpgrade}})
	if err != nil || len(got) != 1 {
		t.Fatalf("upgrade events = %v, %v", got, err)
	}
	up := got[0]
	if up.Node != "AMS-IX" || up.Delta != 1 || !up.Confirmed || up.Gbps != 500 {
		t.Fatalf("upgrade lost fields across the archive: %+v", up)
	}
}

// evSeqMap drives every detector: seqMap's loads sweep the congestion
// thresholds, and from snapshot 10 on the topology grows (churn after the
// debounce window).
func evSeqMap(id wmap.MapID, i int) *wmap.Map {
	m := seqMap(id, i)
	if i >= 10 {
		m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
		m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#1", LabelB: "#1", LoadAB: 7, LoadBA: 8})
	}
	return m
}

// TestEventLogResumeByteIdentity is the crash-recovery acceptance test for
// the event log: a live run killed after a mid-run Sync and resumed must
// produce an archive byte-identical to the same run never interrupted —
// which requires the resumed writer to rebuild detector state (hysteresis
// sets, debounce pendings, upgrade trackers) by replay, exactly.
func TestEventLogResumeByteIdentity(t *testing.T) {
	const total, crashAt = 16, 9
	dir := t.TempDir()

	run := func(name string, crash bool) []byte {
		path := filepath.Join(dir, name)
		w, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		w.SetBlockPoints(4)
		for i := 0; i < crashAt; i++ {
			if err := w.Append(evSeqMap(wmap.Europe, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if crash {
			// Simulated kill: abandon the writer, restore the on-disk state
			// at a fresh path, and resume from the checkpoint.
			st := captureFiles(t, path)
			path = restoreFiles(t, dir, "resumed-"+name, st)
			if w, err = OpenAppend(path); err != nil {
				t.Fatal(err)
			}
			w.SetBlockPoints(4)
		}
		for i := crashAt; i < total; i++ {
			if err := w.Append(evSeqMap(wmap.Europe, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	want := run("smooth.tsdb", false)
	got := run("killed.tsdb", true)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed archive differs from uninterrupted run: %d vs %d bytes", len(got), len(want))
	}

	// The stream must actually have exercised the detectors, including the
	// debounced churn past the crash point.
	rd := openArchive(t, want)
	evs, err := rd.Events(context.Background(), EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[events.Type]bool{}
	for _, ev := range evs {
		seen[ev.Type] = true
	}
	if len(evs) == 0 || !seen[events.TypeChurn] || !seen[events.TypeCongestionOnset] {
		t.Fatalf("corpus too tame for a meaningful identity check: %d events, kinds %v", len(evs), seen)
	}

	// And the live archive's event stream equals the batch writer's over the
	// same snapshots: flush timing moves frame boundaries, never content.
	var maps []*wmap.Map
	for i := 0; i < total; i++ {
		maps = append(maps, evSeqMap(wmap.Europe, i))
	}
	bd := openArchive(t, buildArchive(t, 4, maps...))
	bevs, err := bd.Events(context.Background(), EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, bevs) {
		t.Fatalf("live event stream diverges from batch:\nlive  %+v\nbatch %+v", evs, bevs)
	}
}

// TestEventsSince: the SSE publisher's cursor — frames committed after a
// Refresh surface exactly once, in commit order.
func TestEventsSince(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, m := range eventMaps() {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
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
	ctx := context.Background()
	evs, n, err := rd.EventsSince(ctx, 0)
	if err != nil || len(evs) != 2 || n != rd.EventFrames() {
		t.Fatalf("EventsSince(0) = %d events, n=%d, err %v", len(evs), n, err)
	}
	if evs[0].Type != events.TypeCongestionOnset || evs[1].Type != events.TypeCongestionClear {
		t.Fatalf("event order diverges from commit order: %+v", evs)
	}
	// Caught up: nothing new.
	if more, n2, err := rd.EventsSince(ctx, n); err != nil || len(more) != 0 || n2 != n {
		t.Fatalf("caught-up EventsSince = %d events, n=%d, err %v", len(more), n2, err)
	}

	// New commits surface incrementally after Refresh.
	if err := w.Append(testMap(wmap.Europe, at(15), 95, 10, 20, 30, 40, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if changed, err := rd.Refresh(); err != nil || !changed {
		t.Fatalf("Refresh: changed=%v err=%v", changed, err)
	}
	more, n3, err := rd.EventsSince(ctx, n)
	if err != nil || len(more) != 1 || more[0].Type != events.TypeCongestionOnset || n3 <= n {
		t.Fatalf("incremental EventsSince = %+v, n=%d, err %v", more, n3, err)
	}
}

// TestEventFrameCorruptionTyped flips every byte of each committed event
// frame and its footer index region in a closed archive: decode must fail
// with *CorruptError (or the footer parse must), and raw reads must stay
// unpoisoned — corrupt events never take down load queries.
func TestEventFrameCorruptionTyped(t *testing.T) {
	data := buildArchive(t, 0, eventMaps()...)
	clean := openArchive(t, data)
	st := clean.st()
	if len(st.events) == 0 {
		t.Fatal("corpus produced no event frames")
	}

	for fi := range st.events {
		m := st.events[fi]
		start, end := m.offset, m.offset+int64(frameOverhead)+int64(m.payloadLen)
		for off := start; off < end; off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0xFF
			rd, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
			if err != nil {
				// The flip reached something the open-time parse validates.
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: open error %v is not *CorruptError", off, err)
				}
				continue
			}
			if _, err := rd.Events(context.Background(), EventFilter{}); err == nil {
				t.Fatalf("flip at %d inside an event frame went undetected", off)
			} else {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: Events error %v is not *CorruptError", off, err)
				}
			}
			// The damage is confined to the event log: every raw block still
			// reads clean.
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
			n := 0
			for cur.Next() {
				n++
			}
			if err := cur.Err(); err != nil || n != len(eventMaps()) {
				t.Fatalf("flip at %d poisoned raw reads: %d snapshots, err %v", off, n, err)
			}
		}
	}
}

// TestEventFrameCached: one decode serves repeated queries when a cache is
// attached.
func TestEventFrameCached(t *testing.T) {
	rd := openArchive(t, buildArchive(t, 0, eventMaps()...))
	c := NewBlockCache(1 << 20)
	rd.SetBlockCache(c)
	for i := 0; i < 3; i++ {
		if _, err := rd.Events(context.Background(), EventFilter{}); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.Stats()
	if cs.Misses != 1 || cs.Hits != 2 {
		t.Fatalf("cache stats %+v, want 1 miss + 2 hits", cs)
	}
}

// TestV2ArchiveStillOpens: an archive whose footer carries only the rollup
// suffix (the pre-event format) opens and serves, reporting no events.
func TestV2ArchiveStillOpens(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.SetEventDetection(false, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range eventMaps() {
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd := openArchive(t, buf.Bytes())
	if rd.EventFrames() != 0 {
		t.Fatal("event frames in a detection-disabled archive")
	}
	if n := rd.Snapshots(wmap.Europe); n != 3 {
		t.Fatalf("snapshots = %d", n)
	}
}
