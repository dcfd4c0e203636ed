package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// decodeBase is the first snapshot time of the hand-built test blocks; their
// snapshots are five minutes apart.
const decodeBase = 1593561600 // 2020-07-01T00:00:00Z

// loadColumn encodes loads as a block's load column: a uvarint first value,
// then zigzag varint deltas. Values outside [0, 100] encode as they are,
// so tests can build columns a writer never would.
func loadColumn(loads ...int64) []byte {
	b := binary.AppendUvarint(nil, uint64(loads[0]))
	for i := 1; i < len(loads); i++ {
		b = binary.AppendVarint(b, loads[i]-loads[i-1])
	}
	return b
}

// blockFrame returns an archive prefix holding one CRC-framed raw block of
// n points, five minutes apart, whose load columns are cols byte for byte,
// and the index row naming it. The directory is consistent with the bytes,
// so any decode error comes from the columns themselves.
func blockFrame(n int, cols [][]byte) ([]byte, blockMeta) {
	meta := blockMeta{baseUnix: decodeBase, lastUnix: decodeBase + 300*int64(n-1),
		points: n, links: len(cols) / 2}
	var timeCol []byte
	for i := 1; i < n; i++ {
		timeCol = binary.AppendUvarint(timeCol, 300)
	}
	p := binary.AppendUvarint(nil, meta.mapRef)
	for _, v := range []int64{int64(meta.topoIndex), meta.baseUnix, int64(n), int64(meta.links), int64(len(timeCol))} {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, c := range cols {
		p = binary.AppendUvarint(p, uint64(len(c)))
	}
	p = append(p, timeCol...)
	for _, c := range cols {
		p = append(p, c...)
	}
	meta.frame = frame{offset: int64(len(headerMagic)), payloadLen: len(p)}
	return appendFrame([]byte(headerMagic), p), meta
}

// sameDecode fails t unless decodeBlockAt and referenceDecodeBlock agree on
// the block with the given column group: equal times and columns, or
// errors equal in type, offset and text. It returns the decode error.
func sameDecode(t testing.TB, data []byte, meta blockMeta, group int) error {
	t.Helper()
	r := bytes.NewReader(data)
	got, err := decodeBlockAt(r, int64(len(data)), &meta, group)
	ref, refErr := referenceDecodeBlock(r, int64(len(data)), &meta, groupWant(group))
	if refErr != nil {
		var ce, refCE *CorruptError
		if !errors.As(refErr, &refCE) {
			t.Fatalf("reference error %v is not a *CorruptError", refErr)
		}
		if !errors.As(err, &ce) || ce.Offset != refCE.Offset || err.Error() != refErr.Error() {
			t.Fatalf("decode error %v, reference error %v", err, refErr)
		}
		return err
	}
	if err != nil {
		t.Fatalf("decode error %v; the reference decodes the block", err)
	}
	if !reflect.DeepEqual(got.times, ref.times) || !reflect.DeepEqual(got.cols, ref.cols) {
		t.Fatalf("decode differs from the reference:\n got %v %v\nwant %v %v", got.times, got.cols, ref.times, ref.cols)
	}
	return nil
}

// decodeProg turns fuzz bytes into 2·links load columns for n points.
// Column c's length is n-4 … n+4, from prog[c] (never below zero); its
// bytes follow in order, zero-padded when prog runs out. Lengths near n
// keep the one-byte fast path, its fallback, short columns and trailing
// bytes all in reach of a single mutation.
func decodeProg(n, links int, prog []byte) [][]byte {
	cols := make([][]byte, 2*links)
	p := len(cols)
	for c := range cols {
		var lb byte
		if c < len(prog) {
			lb = prog[c]
		}
		l := max(n+int(lb%9)-4, 0)
		col := make([]byte, l)
		if p < len(prog) {
			copy(col, prog[p:])
		}
		p += l
		cols[c] = col
	}
	return cols
}

// encodeProg is decodeProg's inverse for seeds: every column must be
// within four bytes of n long.
func encodeProg(n int, cols ...[]byte) []byte {
	prog := make([]byte, len(cols))
	for c, col := range cols {
		prog[c] = byte(len(col) - n + 4)
	}
	for _, col := range cols {
		prog = append(prog, col...)
	}
	return prog
}

// FuzzDecodeBlock: decodeBlockAt equals referenceDecodeBlock, the decode
// it replaced, on CRC-valid blocks whose column bytes the fuzzer chooses:
// equal times and columns, or errors equal in type, offset and text. The
// frames are valid, so every input reaches the column decoders. group
// picks the whole block or one link's two columns.
func FuzzDecodeBlock(f *testing.F) {
	// All-one-byte columns: slow drifts, the bounds, a flat column.
	f.Add(uint8(4), uint8(1), uint8(1), encodeProg(4,
		loadColumn(10, 11, 9, 10), loadColumn(0, 100, 100, 0)))
	f.Add(uint8(6), uint8(2), uint8(0), encodeProg(6,
		loadColumn(50, 50, 50, 50, 50, 50), loadColumn(100, 37, 100, 37, 100, 37),
		loadColumn(0, 0, 1, 0, 0, 1), loadColumn(42, 43, 44, 45, 46, 47)))
	// Mixed 1- and 2-byte deltas (|delta| ≥ 64), and a 2-byte first value.
	f.Add(uint8(5), uint8(1), uint8(1), encodeProg(5,
		loadColumn(0, 70, 5, 90, 20), loadColumn(100, 99, 98, 97, 96)))
	// Loads 101 and 356 (100 + 256) by a first value and by a delta.
	f.Add(uint8(3), uint8(1), uint8(1), encodeProg(3,
		loadColumn(101, 100, 99), loadColumn(100, 356, 100)))
	f.Add(uint8(3), uint8(1), uint8(1), encodeProg(3,
		loadColumn(356, 100, 99), loadColumn(100, 101, 100)))
	// n bytes with a byte ≥ 0x80: the fast path cannot take the column.
	f.Add(uint8(4), uint8(1), uint8(1), encodeProg(4,
		[]byte{10, 0x81, 0x01, 2}, []byte{0x80, 0x80, 0x80, 0x80}))
	// Trailing bytes after the last value, and a column one byte short.
	f.Add(uint8(4), uint8(1), uint8(1), encodeProg(4,
		append(loadColumn(1, 2, 3, 4), 0, 0), loadColumn(5, 6, 7)))
	// One link's columns out of three, with damage in a skipped column.
	f.Add(uint8(4), uint8(3), uint8(1), encodeProg(4,
		[]byte{0xff, 0xff, 0xff, 0xff}, loadColumn(1, 2, 3, 4),
		loadColumn(9, 8, 7, 6), loadColumn(100, 0, 100, 0),
		loadColumn(5, 5, 5, 5), []byte{200, 1, 1, 1}))
	f.Fuzz(func(t *testing.T, np, links, group uint8, prog []byte) {
		n, L := 1+int(np%24), 1+int(links%4)
		data, meta := blockFrame(n, decodeProg(n, L, prog))
		g := int(group) % (L + 1)
		if g == L {
			g = allColumns
		}
		sameDecode(t, data, meta, g)
	})
}

// TestDecodeRejectsWrappingLoads: loads of 356 and 2³²+50, by a first
// value or by a delta, are refused with *CorruptError by the block decoder
// (fast path and fallback) and the event decoder, so no narrower load type
// can wrap them into the valid 100 or 50.
func TestDecodeRejectsWrappingLoads(t *testing.T) {
	const wide = 1<<32 + 50
	for _, loads := range [][]int64{
		{356, 100},
		{wide, 50},
		{100, 356},
		{50, wide},
		{100, 101}, // one byte a value: the fast path's column
	} {
		data, meta := blockFrame(len(loads), [][]byte{loadColumn(loads...), make([]byte, len(loads))})
		var ce *CorruptError
		if err := sameDecode(t, data, meta, allColumns); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "out of [0, 100]") {
			t.Errorf("loads %v: decode error %v, want a *CorruptError for the load", loads, err)
		}
	}

	for _, load := range []uint64{356, wide} {
		p := binary.AppendUvarint(nil, 0)       // map ref
		p = binary.AppendUvarint(p, decodeBase) // last point
		p = binary.AppendUvarint(p, 1)          // count
		p = append(p, byte(events.TypeCongestionOnset))
		p = binary.AppendUvarint(p, decodeBase)
		for range 6 { // five string refs (none), ordinal
			p = binary.AppendUvarint(p, 0)
		}
		p = append(p, 0)              // flags
		p = binary.AppendVarint(p, 0) // delta
		p = binary.AppendUvarint(p, load)
		p = binary.AppendUvarint(p, 10) // gbps
		data := appendFrame([]byte(headerMagic), p)
		meta := eventMeta{frame: frame{offset: int64(len(headerMagic)), payloadLen: len(p)},
			firstUnix: decodeBase, lastUnix: decodeBase, lastPoint: decodeBase, count: 1}
		_, err := decodeEventsAt(bytes.NewReader(data), int64(len(data)), &meta, []string{"europe"})
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "out of [0, 100]") {
			t.Errorf("event load %d: decode error %v, want a *CorruptError for the load", load, err)
		}
	}
}

// europeBlock returns an archive holding one 16-snapshot block of the
// simulated Europe map at 2020-11-02 10:00 (897 links) and that block's
// index row.
func europeBlock(tb testing.TB) ([]byte, blockMeta) {
	tb.Helper()
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockPoints(16)
	start := time.Date(2020, 11, 2, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 16; i++ {
		m, err := sim.MapAt(wmap.Europe, start.Add(time.Duration(i)*5*time.Minute))
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Append(m); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	meta := rd.st().blocks[0]
	if meta.points != 16 || meta.links < 800 {
		tb.Fatalf("fixture block has %d points of %d links, want 16 of a Europe-sized map", meta.points, meta.links)
	}
	return data, meta
}

// BenchmarkDecodeBlock decodes one 16-snapshot block of the simulated
// Europe map (about 900 links), whole and for one link's two columns —
// what a cursor fold and a one-link query ask of a cache miss. Both are
// checked against the reference decode before timing; allocs/op is a
// fixed handful per block, whatever the link count. Run with:
//
//	go test -run xxx -bench BenchmarkDecodeBlock -benchmem ./internal/tsdb/
func BenchmarkDecodeBlock(b *testing.B) {
	data, meta := europeBlock(b)
	for _, c := range []struct {
		name  string
		group int
	}{
		{"whole", allColumns},
		{"one-link", meta.links / 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			sameDecode(b, data, meta, c.group)
			r := bytes.NewReader(data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := decodeBlockAt(r, int64(len(data)), &meta, c.group)
				if err != nil {
					b.Fatal(err)
				}
				benchDecoded = db
			}
		})
	}
}

// benchDecoded keeps BenchmarkDecodeBlock's result alive.
var benchDecoded *decodedBlock

// capturingReader records every buffer a decoder asks it to fill.
type capturingReader struct {
	r    io.ReaderAt
	bufs [][]byte
}

func (c *capturingReader) ReadAt(p []byte, off int64) (int, error) {
	c.bufs = append(c.bufs, p)
	return c.r.ReadAt(p, off)
}

// scribble overwrites every buffer c handed out.
func (c *capturingReader) scribble() {
	for _, b := range c.bufs {
		for i := range b {
			b[i] = 0xA5
		}
	}
	c.bufs = nil
}

// TestDecodedFramesOwnTheirBytes: the raw block, rollup and event frame
// decoders read into buffers readFrame recycles, so nothing they return
// may alias one. Each kind is decoded, the buffers it read into are
// overwritten, and the values must read as they did before and equal a
// fresh decode's. The before-and-after comparison is the one a pooled
// buffer cannot hide: a fresh decode may reuse that buffer and restore
// its bytes.
func TestDecodedFramesOwnTheirBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockPoints(4)
	for i := 0; i < 16; i++ {
		if err := w.Append(evSeqMap(wmap.Europe, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	size := int64(len(data))
	st := openArchive(t, data).st()
	if len(st.blocks) == 0 || len(st.rollups) == 0 || len(st.events) == 0 {
		t.Fatalf("fixture has %d blocks, %d rollups, %d event frames; want some of each",
			len(st.blocks), len(st.rollups), len(st.events))
	}
	cr := &capturingReader{r: bytes.NewReader(data)}
	fresh := bytes.NewReader(data)
	// check scribbles over the buffers got was decoded from, then compares
	// got with its own rendering from before and with want, a fresh decode.
	check := func(what string, i int, got any, err error, decode func(io.ReaderAt) (any, error)) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
		before := fmt.Sprintf("%+v", got)
		cr.scribble()
		if after := fmt.Sprintf("%+v", got); after != before {
			t.Errorf("%s %d changed when its frame buffer was overwritten:\n now %s\nwas %s", what, i, after, before)
		}
		want, err := decode(fresh)
		if err != nil {
			t.Fatalf("%s %d: fresh decode: %v", what, i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %d differs from a fresh decode:\n got %+v\nwant %+v", what, i, got, want)
		}
	}
	for i := range st.blocks {
		decode := func(r io.ReaderAt) (any, error) { return decodeBlockAt(r, size, &st.blocks[i], allColumns) }
		got, err := decode(cr)
		check("block", i, got, err, decode)
	}
	for i := range st.rollups {
		decode := func(r io.ReaderAt) (any, error) { return decodeRollupAt(r, size, &st.rollups[i], nil) }
		got, err := decode(cr)
		check("rollup", i, got, err, decode)
	}
	for i := range st.events {
		decode := func(r io.ReaderAt) (any, error) { return decodeEventsAt(r, size, &st.events[i], st.strs) }
		got, err := decode(cr)
		check("event frame", i, got, err, decode)
	}
}
