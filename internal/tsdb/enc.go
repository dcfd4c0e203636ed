package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// On-disk layout constants. All multi-byte integers inside sections are
// unsigned LEB128 varints (zigzag for signed deltas); the block and footer
// framing uses fixed-width little-endian lengths and CRC32-IEEE checksums.
const (
	headerMagic = "wmtsdb1\n"
	tailMagic   = "wmtsend\n"

	// frameOverhead is the fixed framing around a frame payload: a u32
	// length prefix and a u32 CRC suffix.
	frameOverhead = 8

	// tailLen is the fixed trailer after the footer payload: u32 CRC,
	// u64 footer length, tail magic.
	tailLen = 4 + 8 + 8

	// maxUnixSeconds bounds decoded timestamps (≈ year 10889); anything
	// larger marks a corrupt time column.
	maxUnixSeconds = 1 << 48
)

// dec is a bounds-checked cursor over one section's bytes. Every failed
// read resolves to a *CorruptError carrying the absolute file offset, so
// random or truncated input can never index out of range or over-allocate.
type dec struct {
	b   []byte
	pos int
	off int64 // file offset of b[0]
}

func (d *dec) remaining() int { return len(d.b) - d.pos }

// abs is the absolute file offset of the next unread byte.
func (d *dec) abs() int64 { return d.off + int64(d.pos) }

func (d *dec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, corruptf(d.abs(), "bad varint (%s)", what)
	}
	d.pos += n
	return v, nil
}

func (d *dec) varint(what string) (int64, error) {
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		return 0, corruptf(d.abs(), "bad signed varint (%s)", what)
	}
	d.pos += n
	return v, nil
}

// count reads an element count and bounds it by the bytes left in the
// section: every encoded element occupies at least one byte, so any larger
// claim is corruption — checked before any allocation sized by it.
func (d *dec) count(what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()) {
		return 0, corruptf(d.abs(), "%s count %d exceeds %d remaining bytes", what, v, d.remaining())
	}
	return int(v), nil
}

func (d *dec) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, corruptf(d.abs(), "%s of %d bytes exceeds %d remaining", what, n, d.remaining())
	}
	s := d.b[d.pos : d.pos+n]
	d.pos += n
	return s, nil
}

func (d *dec) byte(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, corruptf(d.abs(), "missing byte (%s)", what)
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

// frame locates one framed payload in the data section. Raw blocks, rollup
// blocks and event frames share the framing — u32le payload length,
// payload, u32le CRC32(payload) — and each index row embeds its frame.
type frame struct {
	offset     int64 // file offset of the length prefix
	payloadLen int
}

// end is the file offset just past the frame's checksum.
func (f frame) end() int64 { return f.offset + frameOverhead + int64(f.payloadLen) }

// frameEnds returns the length prefix and checksum suffix that frame
// payload.
func frameEnds(payload []byte) (pre, sum [4]byte) {
	binary.LittleEndian.PutUint32(pre[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	return pre, sum
}

// appendFrame appends payload framed to buf.
func appendFrame(buf, payload []byte) []byte {
	pre, sum := frameEnds(payload)
	return append(append(append(buf, pre[:]...), payload...), sum[:]...)
}

// writeFrame frames payload at the current offset and returns where it
// landed; the caller indexes it.
func (w *Writer) writeFrame(payload []byte) (frame, error) {
	if len(payload) > math.MaxInt32 {
		return frame{}, fmt.Errorf("tsdb: frame payload of %d bytes exceeds the frame limit", len(payload))
	}
	if err := w.ensureHeader(); err != nil {
		return frame{}, err
	}
	f := frame{offset: w.off, payloadLen: len(payload)}
	pre, sum := frameEnds(payload)
	return f, w.writeAll(pre[:], payload, sum[:])
}

// framePool recycles the buffers readFrame reads frames into. Every raw
// block, rollup block and event frame decode reads one, and a fresh
// buffer would be zeroed only for ReadAt to overwrite it.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame caps the buffers framePool keeps. The largest frame a
// live writer seals, a 512-point raw block of the simulated Europe map
// (897 links), is 0.92 MB, so the cap holds that of a map with four times
// the links; a larger buffer is left to the collector, not pinned.
const maxPooledFrame = 4 << 20

// readFrame reads frame f below size into a pooled buffer, checks its
// length prefix against the index and its checksum, and returns a decoder
// over the payload. what names the frame kind in errors. The caller hands
// the buffer back with putFrame, whatever the error, once nothing it
// decoded refers to the payload: the block, rollup and event decoders
// copy every value they keep.
func readFrame(r io.ReaderAt, size int64, f frame, what string) (dec, *[]byte, error) {
	bp := framePool.Get().(*[]byte)
	buf, err := readAtFull(r, size, f.offset, frameOverhead+f.payloadLen, *bp)
	if err != nil {
		return dec{}, bp, err
	}
	*bp = buf
	if got := binary.LittleEndian.Uint32(buf[:4]); int(got) != f.payloadLen {
		return dec{}, bp, corruptf(f.offset, "%s length prefix %d disagrees with index's %d", what, got, f.payloadLen)
	}
	payload := buf[4 : 4+f.payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4+f.payloadLen:]) {
		return dec{}, bp, corruptf(f.offset, "%s checksum mismatch", what)
	}
	return dec{b: payload, off: f.offset + 4}, bp, nil
}

// putFrame returns a buffer readFrame handed out; nil is a no-op.
func putFrame(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledFrame {
		return
	}
	framePool.Put(bp)
}

// checkFrame reads frame f and checks its length prefix and checksum.
func checkFrame(r io.ReaderAt, size int64, f frame, what string) error {
	_, buf, err := readFrame(r, size, f, what)
	putFrame(buf)
	return err
}

// nextFrame decodes the frame at the start of buf, whose first byte sits at
// file offset off, when no index knows its length: it returns a decoder
// over the payload and the framed length, or ok false when buf holds no
// whole frame with a matching checksum there.
func nextFrame(buf []byte, off int64) (d dec, n int, ok bool) {
	if len(buf) < frameOverhead {
		return dec{}, 0, false
	}
	plen := binary.LittleEndian.Uint32(buf)
	if uint64(plen) > uint64(len(buf)-frameOverhead) {
		return dec{}, 0, false
	}
	n = frameOverhead + int(plen)
	payload := buf[4 : 4+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4+plen:]) {
		return dec{}, 0, false
	}
	return dec{b: payload, off: off + 4}, n, true
}

// header reads a payload's leading uvarints and checks them against want,
// the index row's copy of the same fields. All are read before any is
// compared, so a malformed varint is reported where it sits.
func (d *dec) header(what string, want ...uint64) error {
	same := true
	for _, v := range want {
		got, err := d.uvarint("header field")
		if err != nil {
			return err
		}
		same = same && got == v
	}
	if !same {
		return corruptf(d.off, "%s header disagrees with footer index", what)
	}
	return nil
}

// frameRow checks the fields every index row shares — a map ref into the
// string table and a frame inside the data section — and returns the
// frame. d has just read the row, so errors point past it.
func (fd *footerData) frameRow(d *dec, what string, mapRef, off, payloadLen uint64, dataEnd int64) (frame, error) {
	if mapRef >= uint64(len(fd.strs)) {
		return frame{}, corruptf(d.abs(), "%s map ref %d outside string table of %d", what, mapRef, len(fd.strs))
	}
	if off < uint64(len(headerMagic)) || off > uint64(dataEnd) || payloadLen > math.MaxInt32 ||
		off+frameOverhead+payloadLen > uint64(dataEnd) {
		return frame{}, corruptf(d.abs(), "%s frame [%d, +%d] outside data section", what, off, payloadLen)
	}
	return frame{offset: int64(off), payloadLen: int(payloadLen)}, nil
}

// fields reads one index row of len(raw) uvarints.
func (d *dec) fields(raw []uint64) error {
	for i := range raw {
		v, err := d.uvarint("index field")
		if err != nil {
			return err
		}
		raw[i] = v
	}
	return nil
}
