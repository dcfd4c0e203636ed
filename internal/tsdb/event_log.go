package tsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// The event log: evolution events detected at write time — topology churn,
// capacity upgrades, maintenance drains, congestion onset/clear — persisted
// in the archive alongside raw and rollup blocks, and indexed in the footer.
//
// A Writer runs one events.Detector per map over the append stream. Events
// pend in memory and flush as one CRC-framed event block per map at the
// same deterministic flush points rollups use (block rotation, topology
// change, Close), always after the rollup frames of the same flush
// event — so a live archive's committed prefix always covers exactly the
// events the committed raw blocks imply. Frame payload, varints unless
// stated:
//
//	uvarint mapRef, lastPoint (newest appended snapshot at flush), count
//	per event: byte type, uvarint unix,
//	  uvarint nodeRef+1, aRef+1, bRef+1, labelARef+1, labelBRef+1 (0 = none),
//	  uvarint ordinal, byte flags (bit0 = confirmed),
//	  varint delta (zigzag), uvarint load, uvarint gbps
//
// Determinism and crash recovery: the detectors are pure functions of the
// snapshot stream, so a resumed OpenAppend replays every committed raw
// block through fresh detectors, drops emissions at or before the flushed
// event frontier (max lastPoint per map), and re-pends the rest — the
// resumed byte stream is identical to a writer that never stopped.

// footerVersionEvents marks the footer suffix carrying both the rollup
// index and the event index. A v2 footer (rollups, no events) and a v1
// footer (neither) both keep opening read-only.
const footerVersionEvents = 3

// ErrNoEvents reports that the archive holds no event log (an older
// archive, or detection was disabled at write time).
var ErrNoEvents = errors.New("tsdb: archive holds no event log")

// eventMeta is one footer event-index row, mirroring blockMeta. firstUnix
// and lastUnix bound the contained events' change times for query pruning;
// lastPoint is the map's newest appended snapshot at flush time — the
// resume frontier.
type eventMeta struct {
	frame
	mapRef    uint64
	firstUnix int64
	lastUnix  int64
	lastPoint int64
	count     int
}

// SetEventDetection enables or disables write-time event detection
// (enabled by default) and attaches the PeeringDB used to confirm upgrade
// events (nil confirms nothing). Call it before the first Append or Sync.
func (w *Writer) SetEventDetection(enabled bool, db *peeringdb.DB) error {
	if w.resumed {
		return errors.New("tsdb: SetEventDetection must be called before the first append")
	}
	w.evEnabled = enabled
	w.evDB = db
	return nil
}

// detector returns (creating on first use) the map's event detector.
func (w *Writer) detector(id wmap.MapID) *events.Detector {
	det := w.detectors[id]
	if det == nil {
		det = events.NewDetector(id, events.DefaultConfig(), w.evDB)
		w.detectors[id] = det
	}
	return det
}

// evObserve feeds one appended snapshot to the map's detector, as a
// shallow view carrying its interned topology topo, and pends whatever
// became final. Append's caller keeps m, which never carries topo.
func (w *Writer) evObserve(m *wmap.Map, topo *wmap.Topology) {
	view := *m
	view.Topo = topo
	for _, e := range w.detector(m.ID).Observe(&view) {
		w.evPending[m.ID] = append(w.evPending[m.ID], e.Event)
	}
}

// replayEvents feeds a committed raw block through the map's detector and
// re-pends the emissions past the map's event frontier; see ensureResumed.
func (w *Writer) replayEvents(id wmap.MapID, frontier int64, bm *blockMeta, db *decodedBlock) {
	det := w.detector(id)
	// One view per block: the detector keeps no reference to it, so each
	// point only rewrites the time and the loads.
	var m wmap.Map
	for pi := range db.times {
		viewAt(&m, id, w.topos[bm.topoIndex], db, pi)
		for _, e := range det.Observe(&m) {
			if e.EmitTime.Unix() > frontier {
				w.evPending[id] = append(w.evPending[id], e.Event)
			}
		}
	}
}

// flushEvents drains the map's pending events into one event frame. It
// fires at exactly the flush points flushRollups fires at, right after it,
// so the committed raw frontier and the event-flush coverage always agree
// — the invariant the resume frontier depends on.
func (w *Writer) flushEvents(id wmap.MapID) error {
	pend := w.evPending[id]
	if len(pend) == 0 {
		return nil
	}
	if err := w.writeEventFrame(id, pend); err != nil {
		return err
	}
	w.evPending[id] = pend[:0]
	// The frame's lastPoint reaches every head event entry of the map.
	w.evSynced[id] = 0
	delete(w.headLive, id)
	return nil
}

// writeEventFrame encodes and writes one event frame and indexes it.
func (w *Writer) writeEventFrame(id wmap.MapID, evs []events.Event) error {
	lastPoint := w.last[id]
	payload, first, last := w.appendEventPayload(make([]byte, 0, 16+24*len(evs)), id, lastPoint, evs)
	f, err := w.writeFrame(payload)
	if err != nil {
		return err
	}
	w.evIndex = append(w.evIndex, eventMeta{
		frame:     f,
		mapRef:    w.strIDs[string(id)],
		firstUnix: first,
		lastUnix:  last,
		lastPoint: lastPoint,
		count:     len(evs),
	})
	return nil
}

// appendEventPayload encodes the map's events with its frontier lastPoint —
// an event frame's payload and a head event entry alike — and returns the
// events' change-time bounds.
func (w *Writer) appendEventPayload(payload []byte, id wmap.MapID, lastPoint int64, evs []events.Event) ([]byte, int64, int64) {
	ref := func(s string) uint64 {
		if s == "" {
			return 0
		}
		return w.intern(s) + 1
	}
	payload = binary.AppendUvarint(payload, w.intern(string(id)))
	payload = binary.AppendUvarint(payload, uint64(lastPoint))
	payload = binary.AppendUvarint(payload, uint64(len(evs)))
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range evs {
		ev := &evs[i]
		u := ev.Time.Unix()
		if u < first {
			first = u
		}
		if u > last {
			last = u
		}
		payload = append(payload, byte(ev.Type))
		payload = binary.AppendUvarint(payload, uint64(u))
		payload = binary.AppendUvarint(payload, ref(ev.Node))
		payload = binary.AppendUvarint(payload, ref(ev.A))
		payload = binary.AppendUvarint(payload, ref(ev.B))
		payload = binary.AppendUvarint(payload, ref(ev.LabelA))
		payload = binary.AppendUvarint(payload, ref(ev.LabelB))
		payload = binary.AppendUvarint(payload, uint64(ev.Ordinal))
		var flags byte
		if ev.Confirmed {
			flags |= 1
		}
		payload = append(payload, flags)
		payload = binary.AppendVarint(payload, int64(ev.Delta))
		payload = binary.AppendUvarint(payload, uint64(ev.Load))
		payload = binary.AppendUvarint(payload, uint64(ev.Gbps))
	}
	return payload, first, last
}

// parseEventMeta decodes and validates one event-index row; every field is
// cross-checked like parseBlockMeta, so arbitrary bytes fail typed before
// any frame read.
func (fd *footerData) parseEventMeta(d *dec, dataEnd int64) (eventMeta, error) {
	var raw [7]uint64
	if err := d.fields(raw[:]); err != nil {
		return eventMeta{}, err
	}
	f, err := fd.frameRow(d, "event", raw[0], raw[1], raw[2], dataEnd)
	if err != nil {
		return eventMeta{}, err
	}
	m := eventMeta{frame: f, mapRef: raw[0], firstUnix: int64(raw[3]), lastUnix: int64(raw[4]),
		lastPoint: int64(raw[5]), count: int(raw[6])}
	switch {
	case m.count < 1:
		return m, corruptf(d.abs(), "event frame with %d events", m.count)
	case raw[3] > maxUnixSeconds || raw[4] > maxUnixSeconds || raw[5] > maxUnixSeconds:
		return m, corruptf(d.abs(), "event time fields absurd")
	case m.lastUnix < m.firstUnix || m.lastPoint < m.lastUnix:
		return m, corruptf(d.abs(), "event frame time order [%d, %d] past frontier %d invalid", m.firstUnix, m.lastUnix, m.lastPoint)
	}
	return m, nil
}

// decodedEvents is one event frame in memory. Immutable once returned —
// instances are shared by the block cache across concurrent queries.
type decodedEvents struct {
	meta *eventMeta
	evs  []events.Event
}

// cost approximates the heap bytes a decoded frame pins: the struct rows,
// plus each event's prebuilt summary string (the topology strings are
// shared with the reader state's table and not counted).
func (de *decodedEvents) cost() int64 {
	c := int64(len(de.evs))*176 + 96
	for i := range de.evs {
		c += int64(len(de.evs[i].Summary))
	}
	return c
}

// decodeEventsAt reads and fully validates one event frame: framing, CRC,
// header cross-check against the index row, per-event field validation, and
// the frame's claimed time bounds. A flipped byte that survives the CRC
// cannot surface as a silently different event.
func decodeEventsAt(r io.ReaderAt, size int64, meta *eventMeta, strs []string) (*decodedEvents, error) {
	d, buf, err := readFrame(r, size, meta.frame, "event frame")
	defer putFrame(buf)
	if err != nil {
		return nil, err
	}
	if err := d.header("event frame", meta.mapRef, uint64(meta.lastPoint), uint64(meta.count)); err != nil {
		return nil, err
	}
	id := wmap.MapID(strs[meta.mapRef])
	evs, first, last, err := decodeEventRows(&d, id, meta.count, meta.firstUnix, meta.lastUnix, strs)
	if err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, corruptf(d.abs(), "%d trailing bytes in event frame", d.remaining())
	}
	if first != meta.firstUnix || last != meta.lastUnix {
		return nil, corruptf(meta.offset+4, "event frame time bounds [%d, %d] disagree with index's [%d, %d]",
			first, last, meta.firstUnix, meta.lastUnix)
	}
	return &decodedEvents{meta: meta, evs: evs}, nil
}

// decodeEventRows decodes count events of map id from d, each with its
// change time inside [lo, hi], and returns them with their time bounds.
// Every field is validated, so a flipped byte that survives a CRC cannot
// surface as a silently different event.
func decodeEventRows(d *dec, id wmap.MapID, count int, lo, hi int64, strs []string) ([]events.Event, int64, int64, error) {
	str := func(ref uint64) (string, error) {
		if ref == 0 {
			return "", nil
		}
		if ref-1 >= uint64(len(strs)) {
			return "", corruptf(d.abs(), "event string ref %d outside table of %d", ref, len(strs))
		}
		return strs[ref-1], nil
	}
	evs := make([]events.Event, 0, count)
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < count; i++ {
		tb, err := d.byte("event type")
		if err != nil {
			return nil, 0, 0, err
		}
		ty := events.Type(tb)
		if !ty.Valid() {
			return nil, 0, 0, corruptf(d.abs(), "unknown event type %d", tb)
		}
		u, err := d.uvarint("event time")
		if err != nil {
			return nil, 0, 0, err
		}
		if u > maxUnixSeconds || int64(u) < lo || int64(u) > hi {
			return nil, 0, 0, corruptf(d.abs(), "event time %d outside frame bounds [%d, %d]", u, lo, hi)
		}
		if int64(u) < first {
			first = int64(u)
		}
		if int64(u) > last {
			last = int64(u)
		}
		var fields [5]string
		fieldNames := [5]string{"node ref", "a ref", "b ref", "label a ref", "label b ref"}
		for j := range fields {
			ref, err := d.uvarint(fieldNames[j])
			if err != nil {
				return nil, 0, 0, err
			}
			if fields[j], err = str(ref); err != nil {
				return nil, 0, 0, err
			}
		}
		ord, err := d.uvarint("event ordinal")
		if err != nil {
			return nil, 0, 0, err
		}
		if ord > math.MaxInt32 {
			return nil, 0, 0, corruptf(d.abs(), "event ordinal %d absurd", ord)
		}
		flags, err := d.byte("event flags")
		if err != nil {
			return nil, 0, 0, err
		}
		if flags&^1 != 0 {
			return nil, 0, 0, corruptf(d.abs(), "unknown event flag bits %#x", flags)
		}
		delta, err := d.varint("event delta")
		if err != nil {
			return nil, 0, 0, err
		}
		if delta > math.MaxInt32 || delta < math.MinInt32 {
			return nil, 0, 0, corruptf(d.abs(), "event delta %d absurd", delta)
		}
		load, err := d.uvarint("event load")
		if err != nil {
			return nil, 0, 0, err
		}
		if load > 100 {
			return nil, 0, 0, corruptf(d.abs(), "event load %d out of [0, 100]", load)
		}
		gbps, err := d.uvarint("event gbps")
		if err != nil {
			return nil, 0, 0, err
		}
		if gbps > math.MaxInt32 {
			return nil, 0, 0, corruptf(d.abs(), "event gbps %d absurd", gbps)
		}
		ev := events.Event{
			Map: id, Type: ty, Time: time.Unix(int64(u), 0).UTC(),
			Node: fields[0], A: fields[1], B: fields[2],
			LabelA: fields[3], LabelB: fields[4],
			Ordinal: int(ord), Delta: int(delta), Load: wmap.Load(load),
			Confirmed: flags&1 != 0, Gbps: int(gbps),
		}
		// The summary is not persisted (it is derivable); render it once at
		// decode so every request serving this cached frame reuses it.
		ev.Summary = ev.Summarize()
		evs = append(evs, ev)
	}
	return evs, first, last, nil
}

// eventFrame returns event frame ei of st, through the cache when one is
// attached.
func (r *Reader) eventFrame(st *readerState, ei int) (*decodedEvents, error) {
	return cached(r, kindEvents, ei, allColumns, func() (*decodedEvents, error) {
		return decodeEventsAt(r.r, st.size, &st.events[ei], st.strs)
	})
}

// EventFilter selects archived events. The zero value selects everything.
type EventFilter struct {
	Map   wmap.MapID    // empty: all maps
	Types []events.Type // nil: all types
	From  time.Time     // inclusive bound on the event's change time; zero: unbounded
	To    time.Time
}

func (f *EventFilter) wantType(t events.Type) bool {
	if len(f.Types) == 0 {
		return true
	}
	for _, w := range f.Types {
		if w == t {
			return true
		}
	}
	return false
}

// Events returns the archived events matching the filter, ordered by change
// time (ties keep per-map emission order, maps in id order). Frames whose
// index bounds miss the window are pruned without decoding. An unknown map
// fails with ErrUnknownMap; an archive without an event log (an older
// format, or detection disabled at write time) yields no events — callers
// that need to distinguish "no event log" from "nothing happened" check
// EventFrames and report ErrNoEvents themselves.
func (r *Reader) Events(ctx context.Context, f EventFilter) ([]events.Event, error) {
	st := r.st()
	ids := st.mapIDs
	if f.Map != "" {
		if !st.hasMap(f.Map) && len(st.evPerMap[f.Map]) == 0 {
			return nil, fmt.Errorf("tsdb: map %q: %w", f.Map, ErrUnknownMap)
		}
		ids = []wmap.MapID{f.Map}
	}
	fromU, toU := rangeBounds(f.From, f.To)
	var out []events.Event
	for _, id := range ids {
		for _, ei := range st.evPerMap[id] {
			m := &st.events[ei]
			if m.lastUnix < fromU || m.firstUnix > toU {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			de, err := r.eventFrame(st, ei)
			if err != nil {
				return nil, err
			}
			out = f.appendMatching(out, de.evs, fromU, toU)
		}
		// Live head events follow the map's event frames: they are newer.
		for _, e := range st.headEvs[id] {
			out = f.appendMatching(out, e.evs, fromU, toU)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}

// appendMatching appends the events of evs the filter selects.
func (f *EventFilter) appendMatching(out, evs []events.Event, fromU, toU int64) []events.Event {
	for i := range evs {
		ev := &evs[i]
		if u := ev.Time.Unix(); u < fromU || u > toU || !f.wantType(ev.Type) {
			continue
		}
		out = append(out, *ev)
	}
	return out
}

// EventFrames returns the number of event frames in the reader's event
// sequence — the cursor EventsSince resumes from. The sequence lists, in
// the order this reader adopted them, the archive's event frames and the
// live head's event entries (each counts as a frame); a frame that seals
// events the head already surfaced brings only the rest, and one that
// brings nothing new is left out. On a closed archive it is the number of
// event frames; it is 0 exactly when the archive holds no event yet.
func (r *Reader) EventFrames() int { return len(r.st().evLog) }

// EventsSince returns the events of the frames past the first n of the
// reader's event sequence (see EventFrames) plus the sequence's new
// length: each event surfaces exactly once. The live-tail publisher calls
// it after every Refresh that adopted data and pushes the result to SSE
// subscribers.
func (r *Reader) EventsSince(ctx context.Context, n int) ([]events.Event, int, error) {
	st := r.st()
	n = max(n, 0)
	if n >= len(st.evLog) {
		return nil, len(st.evLog), nil
	}
	var out []events.Event
	for i := n; i < len(st.evLog); i++ {
		if err := ctx.Err(); err != nil {
			return nil, n, err
		}
		seg := &st.evLog[i]
		evs := seg.head
		if seg.ei >= 0 {
			de, err := r.eventFrame(st, seg.ei)
			if err != nil {
				return nil, n, err
			}
			evs = de.evs
		}
		out = append(out, evs[seg.skip:seg.skip+seg.n]...)
	}
	return out, len(st.evLog), nil
}
