package tsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
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
// change, Sync, Close), always after the rollup frames of the same flush
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
	mapRef     uint64
	offset     int64 // file offset of the frame's length prefix
	payloadLen int
	firstUnix  int64
	lastUnix   int64
	lastPoint  int64
	count      int
}

// SetEventDetection enables or disables write-time event detection
// (enabled by default) and attaches the PeeringDB used to confirm upgrade
// events (nil confirms nothing). Call it before the first Append or Sync.
func (w *Writer) SetEventDetection(enabled bool, db *peeringdb.DB) error {
	if w.evReady {
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

// evObserve feeds one appended snapshot to the map's detector and pends
// whatever became final. The detector copies what it keeps of m, so
// Append's caller keeps ownership of it.
func (w *Writer) evObserve(m *wmap.Map) {
	for _, e := range w.detector(m.ID).Observe(m) {
		w.evPending[m.ID] = append(w.evPending[m.ID], e.Event)
	}
}

// ensureEventState lazily reconstructs a resumed archive's detector state by
// replaying every committed raw block. It runs once, at the first
// append/sync/close, so SetEventDetection can still be called after
// OpenAppend. A corrupt raw block disables detection for this writer
// (logged) rather than failing the resume, exactly like ensureRollupState:
// recovery only guarantees the committed tail, deeper damage surfaces when
// read.
func (w *Writer) ensureEventState() error {
	if w.evReady {
		return nil
	}
	w.evReady = true
	if !w.evEnabled || len(w.index) == 0 || w.f == nil {
		return nil
	}
	if err := w.rebuildEvents(); err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			log.Printf("tsdb: resume: cannot rebuild event state, disabling event detection for this writer: %v", err)
			w.evEnabled = false
			w.detectors = make(map[wmap.MapID]*events.Detector)
			w.evPending = make(map[wmap.MapID][]events.Event)
			return nil
		}
		return err
	}
	return nil
}

// rebuildEvents replays the committed raw blocks — all of them, because
// detector state (hysteresis sets, debounce pendings, upgrade trackers)
// depends on the whole history — through fresh detectors, suppressing
// emissions at or before each map's flushed frontier and re-pending the
// rest. At every commit the flushed frames cover exactly the emissions up
// to the frontier, so the rebuilt pending set equals the crashed writer's.
func (w *Writer) rebuildEvents() error {
	frontier := make(map[wmap.MapID]int64)
	for i := range w.evIndex {
		m := &w.evIndex[i]
		id := wmap.MapID(w.strs[m.mapRef])
		if cur, ok := frontier[id]; !ok || m.lastPoint > cur {
			frontier[id] = m.lastPoint
		}
	}
	// w.index is in flush order, which is chronological per map.
	for i := range w.index {
		bm := &w.index[i]
		id := wmap.MapID(w.strs[bm.mapRef])
		db, err := decodeBlockAt(w.f, w.off, bm, nil)
		if err != nil {
			return err
		}
		det := w.detector(id)
		topo := w.topos[bm.topoIndex]
		fr, ok := frontier[id]
		if !ok {
			fr = -1
		}
		// One map per block: the detector keeps no reference to it, so
		// each point only rewrites the time and the loads.
		m := &wmap.Map{ID: id, Nodes: topo.nodes, Links: append([]wmap.Link(nil), topo.links...)}
		for pi, t := range db.times {
			m.Time = time.Unix(t, 0).UTC()
			for li := range m.Links {
				m.Links[li].LoadAB = db.cols[2*li][pi]
				m.Links[li].LoadBA = db.cols[2*li+1][pi]
			}
			for _, e := range det.Observe(m) {
				if e.EmitTime.Unix() > fr {
					w.evPending[id] = append(w.evPending[id], e.Event)
				}
			}
		}
	}
	return nil
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
	return nil
}

// flushFinalEvents drains every map's pending events at Close, in map-id
// order so the bytes are a pure function of the append sequence.
func (w *Writer) flushFinalEvents() error {
	ids := make([]string, 0, len(w.evPending))
	for id := range w.evPending {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := w.flushEvents(wmap.MapID(id)); err != nil {
			return err
		}
	}
	return nil
}

// writeEventFrame encodes and writes one event frame and indexes it.
func (w *Writer) writeEventFrame(id wmap.MapID, evs []events.Event) error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	lastPoint := w.last[id]
	ref := func(s string) uint64 {
		if s == "" {
			return 0
		}
		return w.intern(s) + 1
	}
	payload := make([]byte, 0, 16+24*len(evs))
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
	if len(payload) > math.MaxInt32 {
		return errors.New("tsdb: event payload exceeds the frame limit")
	}
	meta := eventMeta{
		mapRef:     w.strIDs[string(id)],
		offset:     w.off,
		payloadLen: len(payload),
		firstUnix:  first,
		lastUnix:   last,
		lastPoint:  lastPoint,
		count:      len(evs),
	}
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if err := w.writeAll(frame[:], payload, sum[:]); err != nil {
		return err
	}
	w.evIndex = append(w.evIndex, meta)
	return nil
}

// parseEventMeta decodes and validates one event-index row; every field is
// cross-checked like parseBlockMeta, so arbitrary bytes fail typed before
// any frame read.
func (fd *footerData) parseEventMeta(d *dec, dataEnd int64) (eventMeta, error) {
	var m eventMeta
	var raw [7]uint64
	for i := range raw {
		v, err := d.uvarint("event index field")
		if err != nil {
			return m, err
		}
		raw[i] = v
	}
	m.mapRef = raw[0]
	m.offset = int64(raw[1])
	m.payloadLen = int(raw[2])
	m.firstUnix = int64(raw[3])
	m.lastUnix = int64(raw[4])
	m.lastPoint = int64(raw[5])
	m.count = int(raw[6])
	switch {
	case m.mapRef >= uint64(len(fd.strs)):
		return m, corruptf(d.abs(), "event map ref %d outside string table of %d", m.mapRef, len(fd.strs))
	case m.count < 1:
		return m, corruptf(d.abs(), "event frame with %d events", m.count)
	case raw[3] > maxUnixSeconds || raw[4] > maxUnixSeconds || raw[5] > maxUnixSeconds:
		return m, corruptf(d.abs(), "event time fields absurd")
	case m.lastUnix < m.firstUnix || m.lastPoint < m.lastUnix:
		return m, corruptf(d.abs(), "event frame time order [%d, %d] past frontier %d invalid", m.firstUnix, m.lastUnix, m.lastPoint)
	case m.offset < int64(len(headerMagic)) || raw[2] > math.MaxInt32 ||
		m.offset+int64(frameOverhead)+int64(m.payloadLen) > dataEnd:
		return m, corruptf(d.abs(), "event frame [%d, +%d] outside data section", m.offset, m.payloadLen)
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
	frame, err := readAtFull(r, size, meta.offset, frameOverhead+meta.payloadLen)
	if err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(frame[:4]); int(got) != meta.payloadLen {
		return nil, corruptf(meta.offset, "event frame length prefix %d disagrees with index's %d", got, meta.payloadLen)
	}
	payload := frame[4 : 4+meta.payloadLen]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(frame[4+meta.payloadLen:]) {
		return nil, corruptf(meta.offset, "event frame checksum mismatch")
	}
	d := &dec{b: payload, off: meta.offset + 4}

	var hdr [3]uint64
	names := [3]string{"map ref", "last point", "event count"}
	for i := range hdr {
		v, err := d.uvarint(names[i])
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if hdr[0] != meta.mapRef || hdr[1] != uint64(meta.lastPoint) || hdr[2] != uint64(meta.count) {
		return nil, corruptf(meta.offset+4, "event frame header disagrees with footer index")
	}
	str := func(ref uint64) (string, error) {
		if ref == 0 {
			return "", nil
		}
		if ref-1 >= uint64(len(strs)) {
			return "", corruptf(d.abs(), "event string ref %d outside table of %d", ref, len(strs))
		}
		return strs[ref-1], nil
	}
	id := wmap.MapID(strs[meta.mapRef])
	de := &decodedEvents{meta: meta, evs: make([]events.Event, 0, meta.count)}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < meta.count; i++ {
		tb, err := d.byte("event type")
		if err != nil {
			return nil, err
		}
		ty := events.Type(tb)
		if !ty.Valid() {
			return nil, corruptf(d.abs(), "unknown event type %d", tb)
		}
		u, err := d.uvarint("event time")
		if err != nil {
			return nil, err
		}
		if u > maxUnixSeconds || int64(u) < meta.firstUnix || int64(u) > meta.lastUnix {
			return nil, corruptf(d.abs(), "event time %d outside frame bounds [%d, %d]", u, meta.firstUnix, meta.lastUnix)
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
				return nil, err
			}
			if fields[j], err = str(ref); err != nil {
				return nil, err
			}
		}
		ord, err := d.uvarint("event ordinal")
		if err != nil {
			return nil, err
		}
		if ord > math.MaxInt32 {
			return nil, corruptf(d.abs(), "event ordinal %d absurd", ord)
		}
		flags, err := d.byte("event flags")
		if err != nil {
			return nil, err
		}
		if flags&^1 != 0 {
			return nil, corruptf(d.abs(), "unknown event flag bits %#x", flags)
		}
		delta, err := d.varint("event delta")
		if err != nil {
			return nil, err
		}
		if delta > math.MaxInt32 || delta < math.MinInt32 {
			return nil, corruptf(d.abs(), "event delta %d absurd", delta)
		}
		load, err := d.uvarint("event load")
		if err != nil {
			return nil, err
		}
		if !wmap.Load(load).Valid() {
			return nil, corruptf(d.abs(), "event load %d out of [0, 100]", load)
		}
		gbps, err := d.uvarint("event gbps")
		if err != nil {
			return nil, err
		}
		if gbps > math.MaxInt32 {
			return nil, corruptf(d.abs(), "event gbps %d absurd", gbps)
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
		de.evs = append(de.evs, ev)
	}
	if d.remaining() != 0 {
		return nil, corruptf(d.abs(), "%d trailing bytes in event frame", d.remaining())
	}
	if first != meta.firstUnix || last != meta.lastUnix {
		return nil, corruptf(meta.offset+4, "event frame time bounds [%d, %d] disagree with index's [%d, %d]",
			first, last, meta.firstUnix, meta.lastUnix)
	}
	return de, nil
}

// eventFrame returns event frame ei of st, through the cache when one is
// attached — the same singleflight dance as block and rollup, under
// kindEvents keys.
func (r *Reader) eventFrame(st *readerState, ei int) (*decodedEvents, error) {
	if r.cache == nil {
		return decodeEventsAt(r.r, st.size, &st.events[ei], st.strs)
	}
	v, err := r.cache.getOrLoad(cacheKey{arch: r.cacheID, kind: kindEvents, block: ei, group: allColumns}, func() (cacheValue, error) {
		return decodeEventsAt(r.r, st.size, &st.events[ei], st.strs)
	})
	if err != nil {
		return nil, err
	}
	return v.(*decodedEvents), nil
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
		if len(st.perMap[f.Map]) == 0 && len(st.evPerMap[f.Map]) == 0 {
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
			for i := range de.evs {
				ev := &de.evs[i]
				u := ev.Time.Unix()
				if u < fromU || u > toU || !f.wantType(ev.Type) {
					continue
				}
				out = append(out, *ev)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}

// EventFrames returns the number of event frames in the current committed
// state — the cursor EventsSince resumes from.
func (r *Reader) EventFrames() int { return len(r.st().events) }

// EventsSince decodes the event frames appended after the first n (in
// commit order, all maps interleaved) and returns them plus the new frame
// count. The live-tail publisher calls it after every Refresh that adopted
// data and pushes the result to SSE subscribers.
func (r *Reader) EventsSince(ctx context.Context, n int) ([]events.Event, int, error) {
	st := r.st()
	if n < 0 {
		n = 0
	}
	if n >= len(st.events) {
		return nil, len(st.events), nil
	}
	var out []events.Event
	for ei := n; ei < len(st.events); ei++ {
		if err := ctx.Err(); err != nil {
			return nil, n, err
		}
		de, err := r.eventFrame(st, ei)
		if err != nil {
			return nil, n, err
		}
		out = append(out, de.evs...)
	}
	return out, len(st.events), nil
}
