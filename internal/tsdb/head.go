package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// The write-ahead head: a live archive's unsealed points.
//
// Blocks seal where the batch writer seals them — at the block capacity, on
// a topology change and at Close — so the data file of a live archive is
// byte-for-byte the batch writer's whatever the Sync cadence. What a Sync
// makes durable before its points seal goes to the head sidecar
// (<archive>.head): a 16-byte header (magic, u64 generation) followed by
// frames in the data file's framing (u32le length, payload, u32le CRC32).
// One Sync appends one frame, so a torn Sync is one torn frame. Payload,
// varints unless stated:
//
//	uvarint version (the writer's commit counter at this Sync)
//	uvarint raw entry count; per entry:
//	  uvarint mapRef, topoIndex, firstUnix, pointCount n
//	  n-1 uvarint time deltas (strictly positive)
//	  2L×n load bytes, column-major in openBlock order (column c holds n bytes)
//	uvarint event entry count; per entry: an event-frame payload
//	  (mapRef, lastPoint, count, the events; see event_log.go)
//
// A raw entry holds the map's points synced since the previous Sync, an
// event entry the events its detector emitted meanwhile. Entries only
// reference string and topology entries a checkpoint has already
// committed. An entry dies when its map seals: raw points once a sealed
// block covers their time, event entries once a flushed event frame's
// lastPoint reaches theirs. Replay skips dead entries, so the head needs
// no rewrite when a block seals; the writer compacts it (temp file, fsync,
// rename, directory fsync, new generation) once dead bytes exceed live
// bytes, which keeps it O(unsealed points) at amortized O(1) rewrite cost
// per point. Readers tail it by offset and restart from the header when
// the generation changes.

// headMagic heads a head sidecar file.
const headMagic = "wmtshd1\n"

// headHeaderLen is the fixed head prefix: magic, u64 generation.
const headHeaderLen = len(headMagic) + 8

// headPath returns the head sidecar the live-append protocol keeps next to
// an archive.
func headPath(archivePath string) string { return archivePath + ".head" }

// headRaw is one decoded raw head entry. loads aliases the frame buffer:
// column c's points sit at loads[c*len(times):], each checked to be a
// load.
type headRaw struct {
	mapRef    uint64
	topoIndex int
	times     []int64
	loads     []uint8
	size      int // encoded bytes, for the writer's live-byte tally
}

// headEvents is one decoded event head entry.
type headEvents struct {
	mapRef    uint64
	lastPoint int64
	evs       []events.Event
	size      int
}

// headFrame is one decoded head frame.
type headFrame struct {
	version uint64
	raw     []headRaw
	evs     []headEvents
	size    int // framed bytes
}

// grow makes room for need more points in every column.
func (ob *openBlock) grow(need int) {
	n := len(ob.times)
	if n+need <= ob.stride {
		return
	}
	stride := max(2*ob.stride, n+need, 1)
	loads := make([]wmap.Load, ob.ncols*stride)
	for c := 0; c < ob.ncols; c++ {
		copy(loads[c*stride:], ob.col(c))
	}
	ob.loads, ob.stride = loads, stride
}

// addColumns appends points to ob whose loads come column-major: column c
// of the new points is src[c*stride:c*stride+len(times)], a head entry's
// checked bytes or another open block's loads, converted as they are
// copied. Bytes past the current length are written in place, so a slab
// shared with older views (which see only their own prefix) stays valid
// for them.
func addColumns[E ~uint8](ob *openBlock, times []int64, src []E, stride int) {
	n, k := len(ob.times), len(times)
	ob.grow(k)
	for c := 0; c < ob.ncols; c++ {
		dst := ob.loads[c*ob.stride+n : c*ob.stride+n+k]
		for i, v := range src[c*stride : c*stride+k] {
			dst[i] = wmap.Load(v)
		}
	}
	ob.times = append(ob.times, times...)
}

// appendHeadRaw encodes points [lo, hi) of a map's open block as a raw head
// entry.
func appendHeadRaw(buf []byte, mapRef uint64, ob *openBlock, lo, hi int) []byte {
	buf = binary.AppendUvarint(buf, mapRef)
	buf = binary.AppendUvarint(buf, uint64(ob.topoIndex))
	buf = binary.AppendUvarint(buf, uint64(ob.times[lo]))
	buf = binary.AppendUvarint(buf, uint64(hi-lo))
	for i := lo + 1; i < hi; i++ {
		buf = binary.AppendUvarint(buf, uint64(ob.times[i]-ob.times[i-1]))
	}
	buf = slices.Grow(buf, ob.ncols*(hi-lo))
	for c := 0; c < ob.ncols; c++ {
		for _, v := range ob.loads[c*ob.stride+lo : c*ob.stride+hi] {
			buf = append(buf, byte(v))
		}
	}
	return buf
}

// parseHeadFrame decodes one head frame's payload against the committed
// string and topology tables. Any structural problem is a *CorruptError:
// the frame's checksum held, so its content is what the writer wrote.
func parseHeadFrame(d *dec, strs []string, topos []*wmap.Topology) (headFrame, error) {
	var hf headFrame
	var err error
	if hf.version, err = d.uvarint("head version"); err != nil {
		return hf, err
	}
	nraw, err := d.count("head raw entries")
	if err != nil {
		return hf, err
	}
	for i := 0; i < nraw; i++ {
		start := d.pos
		var raw [4]uint64
		if err := d.fields(raw[:]); err != nil {
			return hf, err
		}
		mapRef, ti, base := raw[0], raw[1], raw[2]
		switch {
		case mapRef >= uint64(len(strs)):
			return hf, corruptf(d.abs(), "head map ref %d outside string table of %d", mapRef, len(strs))
		case ti >= uint64(len(topos)):
			return hf, corruptf(d.abs(), "head topology index %d outside table of %d", ti, len(topos))
		case raw[3] < 1 || raw[3] > uint64(d.remaining())+1:
			return hf, corruptf(d.abs(), "head entry of %d points", raw[3])
		case base > maxUnixSeconds:
			return hf, corruptf(d.abs(), "head entry time %d absurd", base)
		}
		n := int(raw[3])
		e := headRaw{mapRef: mapRef, topoIndex: int(ti), times: make([]int64, 1, n)}
		e.times[0] = int64(base)
		t := int64(base)
		for k := 1; k < n; k++ {
			delta, err := d.uvarint("head time delta")
			if err != nil {
				return hf, err
			}
			if delta == 0 || t+int64(delta) > maxUnixSeconds {
				return hf, corruptf(d.abs(), "non-increasing or absurd head time delta %d", delta)
			}
			t += int64(delta)
			e.times = append(e.times, t)
		}
		cols := uint64(2 * len(topos[ti].Links()))
		if cols*uint64(n) > uint64(d.remaining()) {
			return hf, corruptf(d.abs(), "head entry of %d×%d loads exceeds %d remaining bytes", cols, n, d.remaining())
		}
		if e.loads, err = d.bytes(int(cols)*n, "head loads"); err != nil {
			return hf, err
		}
		for k, v := range e.loads {
			if !wmap.Load(v).Valid() {
				return hf, corruptf(d.abs()-int64(len(e.loads)-k), "head load %d out of [0, 100]", v)
			}
		}
		e.size = d.pos - start
		hf.raw = append(hf.raw, e)
	}
	nev, err := d.count("head event entries")
	if err != nil {
		return hf, err
	}
	for i := 0; i < nev; i++ {
		start := d.pos
		var raw [3]uint64
		if err := d.fields(raw[:]); err != nil {
			return hf, err
		}
		mapRef, lastPoint := raw[0], raw[1]
		switch {
		case mapRef >= uint64(len(strs)):
			return hf, corruptf(d.abs(), "head event map ref %d outside string table of %d", mapRef, len(strs))
		case lastPoint > maxUnixSeconds:
			return hf, corruptf(d.abs(), "head event frontier %d absurd", lastPoint)
		case raw[2] < 1 || raw[2] > uint64(d.remaining()):
			return hf, corruptf(d.abs(), "head event entry of %d events", raw[2])
		}
		// An event's change time never follows the newest point at its Sync.
		evs, _, _, err := decodeEventRows(d, wmap.MapID(strs[mapRef]), int(raw[2]), 0, int64(lastPoint), strs)
		if err != nil {
			return hf, err
		}
		hf.evs = append(hf.evs, headEvents{mapRef: mapRef, lastPoint: int64(lastPoint), evs: evs, size: d.pos - start})
	}
	if d.remaining() != 0 {
		return hf, corruptf(d.abs(), "%d trailing bytes in head frame", d.remaining())
	}
	return hf, nil
}

// scanHead decodes the whole head frames in buf, whose first byte sits at
// file offset off, calling fn for each. It stops at the first frame that
// is short, fails its checksum or is empty — a torn append, one still
// being written, or the zeros a power loss can leave past a file's last
// write; no head frame is empty — and returns the bytes consumed up to it.
func scanHead(buf []byte, off int64, strs []string, topos []*wmap.Topology, fn func(hf *headFrame) error) (int, error) {
	pos := 0
	for {
		d, n, ok := nextFrame(buf[pos:], off+int64(pos))
		if !ok || d.remaining() == 0 {
			return pos, nil
		}
		hf, err := parseHeadFrame(&d, strs, topos)
		if err != nil {
			return pos, err
		}
		hf.size = n
		if err := fn(&hf); err != nil {
			return pos, err
		}
		pos += n
	}
}

// headLive tracks which head points and events are live for one map
// against a committed state: a raw entry is live past the map's newest
// sealed point, an event entry past its newest flushed event frontier.
type headLive struct {
	sealedLast int64 // -1: no sealed block
	evFront    int64 // -1: no event frame
}

// liveFrom returns the index of e's first live point (len(e.times) when the
// entry is dead) and checks the live points extend ob, the map's live
// points so far: same topology, strictly later.
func (hl headLive) liveFrom(e *headRaw, ob *openBlock, id wmap.MapID) (int, error) {
	k := 0
	for k < len(e.times) && e.times[k] <= hl.sealedLast {
		k++
	}
	if k == len(e.times) || ob == nil || len(ob.times) == 0 {
		return k, nil
	}
	if ob.topoIndex != e.topoIndex {
		return 0, corruptf(0, "head points of %s change topology without a sealed block", id)
	}
	if e.times[k] <= ob.times[len(ob.times)-1] {
		return 0, corruptf(0, "head points of %s not after the previous head points", id)
	}
	return k, nil
}

// readHeadFile reads a head sidecar from offset from (0: the start) to its
// end. It returns the generation, the bytes past from (past the header
// when from is 0) and the file length; a missing file is an empty head
// (gen 0). A file shorter than its header holds no frame and is empty too:
// the header is written before the file is renamed into place, so only a
// truncation can leave one. from is ignored when the generation differs
// from wantGen.
func readHeadFile(path string, wantGen uint64, from int64) (gen uint64, buf []byte, start, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil, 0, 0, nil
		}
		return 0, nil, 0, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, 0, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	size = fi.Size()
	if size < int64(headHeaderLen) {
		return 0, nil, 0, size, nil
	}
	var hdr [headHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	if string(hdr[:len(headMagic)]) != headMagic {
		return 0, nil, 0, 0, corruptf(0, "bad head magic %q", hdr[:len(headMagic)])
	}
	gen = binary.LittleEndian.Uint64(hdr[len(headMagic):])
	if gen == 0 {
		return 0, nil, 0, 0, corruptf(int64(len(headMagic)), "head generation 0")
	}
	start = int64(headHeaderLen)
	if gen == wantGen && from > start && from <= size {
		start = from
	}
	buf = make([]byte, size-start)
	// A resuming writer may truncate a torn tail meanwhile: keep what was read.
	n, err := f.ReadAt(buf, start)
	if err != nil && err != io.EOF {
		return 0, nil, 0, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	return gen, buf[:n], start, size, nil
}

// createHead atomically and durably replaces the head sidecar with a new
// generation holding frames (already framed): temp file, fsync, rename,
// directory fsync. It returns the open file, positioned at its end, and
// the generation.
func createHead(path string, frames []byte) (*os.File, uint64, error) {
	gen := rand.Uint64() | 1 // never 0, the "no head" generation
	buf := make([]byte, 0, headHeaderLen+len(frames))
	buf = append(buf, headMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = append(buf, frames...)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, 0, fmt.Errorf("tsdb: head: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, gen, nil
}

// headLives maps each map to its head liveness bounds.
type headLives map[wmap.MapID]headLive

// get returns the map's bounds; a map with nothing sealed keeps every
// head entry.
func (hl headLives) get(id wmap.MapID) headLive {
	if l, ok := hl[id]; ok {
		return l
	}
	return headLive{sealedLast: -1, evFront: -1}
}
