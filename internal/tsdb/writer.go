package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// DefaultBlockPoints is how many snapshots one block holds at most; a block
// also closes early whenever its map's topology changes, since every block
// references exactly one dictionary entry.
const DefaultBlockPoints = 512

// blockMeta is one footer-index row: everything a reader needs to decide
// whether a block overlaps a query and to fetch it, without decoding it.
type blockMeta struct {
	mapRef     uint64 // string-table id of the map id
	offset     int64  // file offset of the block's length prefix
	payloadLen int
	topoIndex  int
	baseUnix   int64 // first snapshot time, unix seconds
	lastUnix   int64 // last snapshot time, unix seconds
	points     int
	links      int
}

// openBlock accumulates one map's current window before encoding. Its 2L
// load columns (link i stores AB at column 2i, BA at 2i+1) share one slab
// and grow together, so a point allocates only when every column is full.
type openBlock struct {
	topoIndex int
	times     []int64
	ncols     int
	stride    int     // points each column has room for
	loads     []uint8 // column c holds its points at loads[c*stride:]
}

// col returns column c's points.
func (ob *openBlock) col(c int) []uint8 {
	return ob.loads[c*ob.stride : c*ob.stride+len(ob.times)]
}

// add appends one point: the snapshot time and the links' loads.
//
//wm:hotpath
func (ob *openBlock) add(t int64, links []wmap.Link) {
	n := len(ob.times)
	if n == ob.stride {
		stride := max(2*ob.stride, 1)
		loads := make([]uint8, ob.ncols*stride)
		for c := 0; c < ob.ncols; c++ {
			copy(loads[c*stride:], ob.col(c))
		}
		ob.loads, ob.stride = loads, stride
	}
	for i := range links {
		ob.loads[2*i*ob.stride+n] = uint8(links[i].LoadAB)
		ob.loads[(2*i+1)*ob.stride+n] = uint8(links[i].LoadBA)
	}
	ob.times = append(ob.times, t)
}

// ArchiveStats summarizes an archive for logs, tests, and benchmarks.
// Blocks counts raw blocks only; RollupBlocks and EventBlocks count the
// pre-aggregated rollup blocks and event-log frames interleaved with them.
type ArchiveStats struct {
	Blocks       int
	RollupBlocks int
	EventBlocks  int
	Snapshots    int
	Topologies   int
	Strings      int
	Bytes        int64
}

// Writer builds an archive by appending snapshots. Appends must be
// chronological per map (maps may interleave freely); Close flushes the
// open blocks and writes the footer — an unclosed archive has no footer and
// is rejected by the reader as truncated. Writer is not safe for concurrent
// use; the parallel pipeline serializes emission before it reaches Append.
type Writer struct {
	w      io.Writer
	bw     *bufio.Writer // non-nil when Create wrapped a file
	closer io.Closer
	off    int64
	err    error // sticky: first write failure poisons the writer
	closed bool

	// Live-append state (OpenAppend); see checkpoint.go for the protocol.
	f         *os.File
	live      bool
	ckptPath  string
	version   uint64 // last published commit version
	committed int64  // data length the last checkpoint covered

	blockPoints int

	strIDs map[string]uint64
	strs   []string

	topos    []*topology
	topoByFP map[uint64][]int

	open  map[wmap.MapID]*openBlock
	last  map[wmap.MapID]int64
	index []blockMeta

	// Rollup tier state; see rollup.go. rollupReady flips at the first
	// append/sync/close, after which the resolutions are frozen and (on a
	// resumed archive) the accumulators have been rebuilt from raw blocks.
	rollupRes   []int64 // tier resolutions in seconds, ascending
	rollupReady bool
	rollups     []rollupMeta
	accs        map[wmap.MapID][]*rollupAcc

	// Event-log state; see event_log.go. evReady flips with the same
	// discipline as rollupReady, after which enablement, config, and (on a
	// resumed archive) the rebuilt detector state are frozen.
	evEnabled bool
	evDB      *peeringdb.DB
	evReady   bool
	detectors map[wmap.MapID]*events.Detector
	evPending map[wmap.MapID][]events.Event
	evIndex   []eventMeta

	snapshots int
}

// NewWriter returns a Writer emitting the archive to w.
func NewWriter(w io.Writer) *Writer {
	res := make([]int64, len(DefaultRollupResolutions))
	for i, r := range DefaultRollupResolutions {
		res[i] = int64(r / time.Second)
	}
	return &Writer{
		w:           w,
		blockPoints: DefaultBlockPoints,
		strIDs:      make(map[string]uint64),
		topoByFP:    make(map[uint64][]int),
		open:        make(map[wmap.MapID]*openBlock),
		last:        make(map[wmap.MapID]int64),
		rollupRes:   res,
		accs:        make(map[wmap.MapID][]*rollupAcc),
		evEnabled:   true,
		detectors:   make(map[wmap.MapID]*events.Detector),
		evPending:   make(map[wmap.MapID][]events.Event),
	}
}

// Create creates (or truncates) an archive file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w := NewWriter(bw)
	w.bw, w.closer = bw, f
	return w, nil
}

// OpenAppend opens path as a live archive for appending, creating it when
// absent. It is the single-writer end of the live-append protocol: every
// flushed block is followed by a durable checkpoint commit, concurrent
// Readers tail the growing archive via Refresh, and Close turns the result
// into a byte-for-byte normal closed archive.
//
// OpenAppend recovers whatever state a previous writer left behind:
//
//   - An empty or missing file starts a fresh archive.
//   - A checkpointed (live) archive resumes from its last commit; any
//     uncommitted tail past the committed offset — a torn write from a
//     crash mid-append — is truncated away. The last committed block's
//     checksum is re-verified so damage inside the committed prefix
//     surfaces here as a *CorruptError rather than as a wrong read later.
//   - A closed archive is reopened: its footer becomes the first
//     checkpoint, then the footer and tail are truncated off and blocks
//     append where the data section ended. (The checkpoint is committed
//     before the truncate, so a crash between the two still recovers.)
//
// Anything else — a file that is neither empty, nor checkpointed, nor a
// valid closed archive — fails with a typed *CorruptError. Recovery never
// silently drops committed data: it restores exactly the committed prefix
// or refuses.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	w := NewWriter(nil)
	w.f, w.closer, w.live = f, f, true
	w.ckptPath = CheckpointPath(path)
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(w.off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w.w, w.bw = bw, bw
	return w, nil
}

// recover restores the writer's in-memory state (string table, topology
// dictionary, block index, per-map clocks) from the archive's durable
// commit state and truncates any uncommitted tail.
func (w *Writer) recover() error {
	ck, err := readCheckpoint(w.ckptPath)
	switch {
	case err == nil:
		return w.recoverCheckpoint(ck)
	case errors.Is(err, fs.ErrNotExist):
	default:
		return err
	}
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if fi.Size() == 0 {
		return nil // fresh archive
	}
	// No checkpoint and a non-empty file: only a valid closed archive is
	// acceptable. Turn its footer into the first commit, then truncate the
	// footer and tail off so blocks append where the data section ended.
	// Commit-before-truncate keeps every crash point recoverable.
	footer, footerStart, err := readClosedFooter(w.f, fi.Size())
	if err != nil {
		return err
	}
	fd, err := parseFooterData(footer, footerStart, footerStart)
	if err != nil {
		return err
	}
	w.version = 1
	if err := writeCheckpoint(w.ckptPath, footerStart, w.version, footer); err != nil {
		return err
	}
	if err := w.f.Truncate(footerStart); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	w.off, w.committed = footerStart, footerStart
	w.restore(fd)
	return nil
}

// recoverCheckpoint resumes from a live commit record: verify the
// committed prefix is intact, truncate the uncommitted tail, rebuild state.
func (w *Writer) recoverCheckpoint(ck *checkpoint) error {
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if fi.Size() < ck.dataEnd {
		return corruptf(fi.Size(), "archive holds %d bytes but the checkpoint committed %d — committed data lost", fi.Size(), ck.dataEnd)
	}
	head, err := readAtFull(w.f, ck.dataEnd, 0, len(headerMagic))
	if err != nil {
		return err
	}
	if string(head) != headerMagic {
		return corruptf(0, "bad header magic %q", head)
	}
	fd, err := parseFooterData(ck.payload, 0, ck.dataEnd)
	if err != nil {
		return err
	}
	if err := verifyTailBlock(w.f, fd, ck.dataEnd); err != nil {
		return err
	}
	if err := w.f.Truncate(ck.dataEnd); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	w.off, w.committed, w.version = ck.dataEnd, ck.dataEnd, ck.version
	w.restore(fd)
	return nil
}

// verifyTailBlock re-checks the committed tail against the checkpoint's
// indexes: frames are written contiguously and the checkpoint commits
// right after a flush event, so the highest-offset frame — raw block,
// rollup block, or event frame — must end exactly at the committed offset.
// The last raw block and every rollup/event frame past it (a flush event
// writes its rollup fragments and event frame right after the raw block)
// are re-verified against their checksums, so a torn write anywhere in the
// committed tail surfaces here as a *CorruptError. Damage deeper in the
// committed prefix is still caught by per-block CRCs at read time.
func verifyTailBlock(r io.ReaderAt, fd *footerData, dataEnd int64) error {
	if len(fd.blocks) == 0 {
		if len(fd.rollups) != 0 || len(fd.events) != 0 {
			return corruptf(dataEnd, "checkpoint indexes rollup or event frames but no raw blocks")
		}
		if dataEnd != int64(len(headerMagic)) {
			return corruptf(dataEnd, "checkpoint commits %d bytes but indexes no blocks", dataEnd)
		}
		return nil
	}
	last := &fd.blocks[0]
	for i := range fd.blocks[1:] {
		if fd.blocks[1+i].offset > last.offset {
			last = &fd.blocks[1+i]
		}
	}
	end := last.offset + frameOverhead + int64(last.payloadLen)
	// Rollup and event frames written after the last raw block extend the
	// tail; each must be contiguous with and checked like the block before it.
	type tailFrame struct {
		offset     int64
		payloadLen int
		what       string
	}
	var tail []tailFrame
	for i := range fd.rollups {
		if m := &fd.rollups[i]; m.offset > last.offset {
			tail = append(tail, tailFrame{m.offset, m.payloadLen, "rollup block"})
		}
	}
	for i := range fd.events {
		if m := &fd.events[i]; m.offset > last.offset {
			tail = append(tail, tailFrame{m.offset, m.payloadLen, "event frame"})
		}
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a].offset < tail[b].offset })
	for _, m := range tail {
		if m.offset != end {
			return corruptf(m.offset, "%s at %d not contiguous with committed tail at %d", m.what, m.offset, end)
		}
		end = m.offset + frameOverhead + int64(m.payloadLen)
	}
	if end != dataEnd {
		return corruptf(dataEnd, "last committed frame ends at %d, checkpoint commits %d", end, dataEnd)
	}
	verify := func(offset int64, payloadLen int, what string) error {
		frame, err := readAtFull(r, dataEnd, offset, frameOverhead+payloadLen)
		if err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint32(frame[:4]); int(got) != payloadLen {
			return corruptf(offset, "%s length prefix %d disagrees with index's %d", what, got, payloadLen)
		}
		payload := frame[4 : 4+payloadLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4+payloadLen:]) {
			return corruptf(offset, "committed %s checksum mismatch", what)
		}
		return nil
	}
	if err := verify(last.offset, last.payloadLen, "block"); err != nil {
		return err
	}
	for _, m := range tail {
		if err := verify(m.offset, m.payloadLen, m.what); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the writer's interning tables and clocks from parsed
// footer data, as if every indexed block had just been flushed.
func (w *Writer) restore(fd *footerData) {
	w.strs = fd.strs
	for i, s := range fd.strs {
		w.strIDs[s] = uint64(i)
	}
	w.topos = fd.topos
	for i, t := range fd.topos {
		fp := fingerprintTopology(t.nodes, t.links)
		w.topoByFP[fp] = append(w.topoByFP[fp], i)
	}
	w.index = fd.blocks
	w.rollups = fd.rollups
	w.evIndex = fd.events
	for i := range fd.blocks {
		m := &fd.blocks[i]
		id := wmap.MapID(fd.strs[m.mapRef])
		if lt, ok := w.last[id]; !ok || m.lastUnix > lt {
			w.last[id] = m.lastUnix
		}
		w.snapshots += m.points
	}
}

// SetBlockPoints overrides the per-block snapshot capacity. It only affects
// blocks opened after the call; tests use it to force block rotation.
func (w *Writer) SetBlockPoints(n int) {
	if n > 0 {
		w.blockPoints = n
	}
}

// Stats returns the running totals; Bytes is final only after Close.
func (w *Writer) Stats() ArchiveStats {
	return ArchiveStats{
		Blocks:       len(w.index),
		RollupBlocks: len(w.rollups),
		EventBlocks:  len(w.evIndex),
		Snapshots:    w.snapshots,
		Topologies:   len(w.topos),
		Strings:      len(w.strs),
		Bytes:        w.off,
	}
}

// intern returns the string-table id of s, adding it on first sight.
func (w *Writer) intern(s string) uint64 {
	if id, ok := w.strIDs[s]; ok {
		return id
	}
	id := uint64(len(w.strs))
	w.strIDs[s] = id
	w.strs = append(w.strs, s)
	return id
}

// internTopology returns the dictionary index of the snapshot's topology,
// adding a new entry (and interning its strings) when unseen. The map's
// current topology, that of its open block or else of its rollup run, is
// tried first: between topology changes it matches, and the skeleton is
// never hashed.
func (w *Writer) internTopology(m *wmap.Map) (int, error) {
	cur := -1
	if ob := w.open[m.ID]; ob != nil {
		cur = ob.topoIndex
	} else if accs := w.accs[m.ID]; len(accs) > 0 && accs[0].run != nil {
		cur = accs[0].run.topoIndex
	}
	same := func(i int) bool {
		return wmap.SameSkeleton(&wmap.Map{Nodes: w.topos[i].nodes, Links: w.topos[i].links}, m)
	}
	if cur >= 0 && same(cur) {
		return cur, nil
	}
	fp := fingerprintTopology(m.Nodes, m.Links)
	for _, i := range w.topoByFP[fp] {
		if same(i) {
			return i, nil
		}
	}
	t, err := newTopology(m)
	if err != nil {
		return 0, err
	}
	for _, n := range t.nodes {
		w.intern(n.Name)
	}
	for _, l := range t.links {
		w.intern(l.A)
		w.intern(l.B)
		w.intern(l.LabelA)
		w.intern(l.LabelB)
	}
	idx := len(w.topos)
	w.topos = append(w.topos, t)
	w.topoByFP[fp] = append(w.topoByFP[fp], idx)
	return idx, nil
}

// Append records one snapshot. The snapshot must be later than the map's
// previous one (ErrOutOfOrder otherwise) and carry loads in [0, 100].
func (w *Writer) Append(m *wmap.Map) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if m == nil || m.ID == "" {
		return fmt.Errorf("tsdb: snapshot without a map id")
	}
	t := m.Time.Unix()
	if t < 0 {
		return fmt.Errorf("tsdb: %s snapshot at %s: pre-1970 timestamps unsupported", m.ID, m.Time.UTC())
	}
	if lt, ok := w.last[m.ID]; ok && t <= lt {
		return fmt.Errorf("tsdb: %s snapshot at %s not after previous: %w", m.ID, m.Time.UTC(), ErrOutOfOrder)
	}
	for i, l := range m.Links {
		if !l.LoadAB.Valid() || !l.LoadBA.Valid() {
			return fmt.Errorf("tsdb: %s snapshot at %s: link %d (%s-%s) load out of [0, 100]",
				m.ID, m.Time.UTC(), i, l.A, l.B)
		}
	}
	if err := w.ensureRollupState(); err != nil {
		return err
	}
	if err := w.ensureEventState(); err != nil {
		return err
	}
	ti, err := w.internTopology(m)
	if err != nil {
		return err
	}
	// Flush events happen before the new point is accumulated anywhere, so
	// the rollup state observed at a raw-block flush is identical whether
	// the flush was triggered by rotation here or by an earlier Sync — the
	// invariant behind live-vs-batch byte identity.
	topoChanged := w.rollupEnabled() && w.rollupTopoChanged(m.ID, ti)
	ob := w.open[m.ID]
	rotated := false
	if ob != nil && (ob.topoIndex != ti || len(ob.times) >= w.blockPoints) {
		if err := w.flushBlock(m.ID, ob); err != nil {
			return err
		}
		rotated = true
		ob = nil
	}
	if topoChanged {
		for _, acc := range w.accs[m.ID] {
			acc.retire(ti)
		}
	}
	if rotated || topoChanged {
		if err := w.flushRollups(m.ID, false); err != nil {
			return err
		}
		if err := w.flushEvents(m.ID); err != nil {
			return err
		}
		// A live archive publishes a durable commit after every block that
		// rotates out (and after topology-change fragments), so tailing
		// readers lag by at most one open block.
		if w.live {
			if err := w.commit(); err != nil {
				return err
			}
		}
	}
	if ob == nil {
		ob = &openBlock{topoIndex: ti, ncols: 2 * len(m.Links)}
		w.open[m.ID] = ob
	}
	ob.add(t, m.Links)
	if w.rollupEnabled() {
		w.rollupAdd(m.ID, ti, t, m.Links)
	}
	if w.evEnabled {
		w.evObserve(m)
	}
	w.last[m.ID] = t
	w.snapshots++
	return nil
}

// writeAll writes every buffer, tracking the file offset; the first failure
// poisons the writer.
func (w *Writer) writeAll(bufs ...[]byte) error {
	for _, b := range bufs {
		n, err := w.w.Write(b)
		w.off += int64(n)
		if err != nil {
			w.err = fmt.Errorf("tsdb: write: %w", err)
			return w.err
		}
	}
	return nil
}

// ensureHeader emits the file magic before the first block or the footer.
func (w *Writer) ensureHeader() error {
	if w.off > 0 {
		return nil
	}
	return w.writeAll([]byte(headerMagic))
}

// flushBlock encodes and writes one block:
//
//	uvarint mapRef, topoIndex, baseUnix, pointCount n, linkCount L
//	uvarint timeColLen, 2L × uvarint colLen   (the column directory)
//	time column: n-1 uvarint deltas (seconds, strictly positive)
//	2L load columns: uvarint first value, n-1 zigzag varint deltas
//
// framed as u32le payloadLen + payload + u32le CRC32(payload).
func (w *Writer) flushBlock(id wmap.MapID, ob *openBlock) error {
	n := len(ob.times)
	if n == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	L := ob.ncols / 2
	payload := make([]byte, 0, 32+4*ob.ncols+n+n*ob.ncols/4)
	payload = binary.AppendUvarint(payload, w.intern(string(id)))
	payload = binary.AppendUvarint(payload, uint64(ob.topoIndex))
	payload = binary.AppendUvarint(payload, uint64(ob.times[0]))
	payload = binary.AppendUvarint(payload, uint64(n))
	payload = binary.AppendUvarint(payload, uint64(L))

	timeCol := make([]byte, 0, n)
	for i := 1; i < n; i++ {
		timeCol = binary.AppendUvarint(timeCol, uint64(ob.times[i]-ob.times[i-1]))
	}
	// The columns are encoded back to back into one buffer; ends[c] is
	// where column c's encoding stops.
	colData := make([]byte, 0, ob.ncols*(n+1))
	ends := make([]int, ob.ncols)
	for c := range ends {
		col := ob.col(c)
		colData = binary.AppendUvarint(colData, uint64(col[0]))
		for i := 1; i < len(col); i++ {
			colData = binary.AppendVarint(colData, int64(col[i])-int64(col[i-1]))
		}
		ends[c] = len(colData)
	}
	payload = binary.AppendUvarint(payload, uint64(len(timeCol)))
	start := 0
	for _, end := range ends {
		payload = binary.AppendUvarint(payload, uint64(end-start))
		start = end
	}
	payload = append(payload, timeCol...)
	payload = append(payload, colData...)
	if len(payload) > math.MaxInt32 {
		return fmt.Errorf("tsdb: block payload of %d bytes exceeds the frame limit", len(payload))
	}

	meta := blockMeta{
		mapRef:     w.strIDs[string(id)],
		offset:     w.off,
		payloadLen: len(payload),
		topoIndex:  ob.topoIndex,
		baseUnix:   ob.times[0],
		lastUnix:   ob.times[n-1],
		points:     n,
		links:      L,
	}
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if err := w.writeAll(frame[:], payload, sum[:]); err != nil {
		return err
	}
	w.index = append(w.index, meta)
	return nil
}

// encodeFooter renders the string table, the prefix-delta topology table,
// and the block index.
func (w *Writer) encodeFooter() []byte {
	buf := binary.AppendUvarint(nil, uint64(len(w.strs)))
	for _, s := range w.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.topos)))
	var prev *topology
	for _, t := range w.topos {
		np, lp := 0, 0
		if prev != nil {
			for np < len(prev.nodes) && np < len(t.nodes) && prev.nodes[np] == t.nodes[np] {
				np++
			}
			for lp < len(prev.links) && lp < len(t.links) && prev.links[lp] == t.links[lp] {
				lp++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(np))
		buf = binary.AppendUvarint(buf, uint64(len(t.nodes)-np))
		for _, n := range t.nodes[np:] {
			buf = binary.AppendUvarint(buf, w.strIDs[n.Name])
			kind := byte(0)
			if n.Kind == wmap.Peering {
				kind = 1
			}
			buf = append(buf, kind)
		}
		buf = binary.AppendUvarint(buf, uint64(lp))
		buf = binary.AppendUvarint(buf, uint64(len(t.links)-lp))
		for _, l := range t.links[lp:] {
			buf = binary.AppendUvarint(buf, w.strIDs[l.A])
			buf = binary.AppendUvarint(buf, w.strIDs[l.B])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelA])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelB])
		}
		prev = t
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.index)))
	for _, m := range w.index {
		buf = binary.AppendUvarint(buf, m.mapRef)
		buf = binary.AppendUvarint(buf, uint64(m.offset))
		buf = binary.AppendUvarint(buf, uint64(m.payloadLen))
		buf = binary.AppendUvarint(buf, uint64(m.topoIndex))
		buf = binary.AppendUvarint(buf, uint64(m.baseUnix))
		buf = binary.AppendUvarint(buf, uint64(m.lastUnix))
		buf = binary.AppendUvarint(buf, uint64(m.points))
		buf = binary.AppendUvarint(buf, uint64(m.links))
	}

	// Versioned suffix: the rollup index, then the event index. A v1 footer
	// ends at the block index; readers treat "no bytes left" as v1 (no
	// rollups, no events) and a v2 suffix as rollups-only, so PR 3–7
	// archives keep opening read-only.
	buf = binary.AppendUvarint(buf, footerVersionEvents)
	buf = binary.AppendUvarint(buf, uint64(len(w.rollups)))
	for _, m := range w.rollups {
		buf = binary.AppendUvarint(buf, m.mapRef)
		buf = binary.AppendUvarint(buf, uint64(m.res))
		buf = binary.AppendUvarint(buf, uint64(m.offset))
		buf = binary.AppendUvarint(buf, uint64(m.payloadLen))
		buf = binary.AppendUvarint(buf, uint64(m.topoIndex))
		buf = binary.AppendUvarint(buf, uint64(m.firstBucket))
		buf = binary.AppendUvarint(buf, uint64(m.lastBucket))
		buf = binary.AppendUvarint(buf, uint64(m.lastPoint))
		buf = binary.AppendUvarint(buf, uint64(m.buckets))
		buf = binary.AppendUvarint(buf, uint64(m.links))
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.evIndex)))
	for _, m := range w.evIndex {
		buf = binary.AppendUvarint(buf, m.mapRef)
		buf = binary.AppendUvarint(buf, uint64(m.offset))
		buf = binary.AppendUvarint(buf, uint64(m.payloadLen))
		buf = binary.AppendUvarint(buf, uint64(m.firstUnix))
		buf = binary.AppendUvarint(buf, uint64(m.lastUnix))
		buf = binary.AppendUvarint(buf, uint64(m.lastPoint))
		buf = binary.AppendUvarint(buf, uint64(m.count))
	}
	return buf
}

// LastTime returns the time of the map's newest appended snapshot,
// including snapshots recovered by OpenAppend — the resume point a
// follow-mode ingester needs to skip work already archived.
func (w *Writer) LastTime(id wmap.MapID) (time.Time, bool) {
	t, ok := w.last[id]
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(t, 0).UTC(), ok
}

// Version is the commit version of the last published checkpoint; 0 before
// the first commit or on a non-live writer.
func (w *Writer) Version() uint64 { return w.version }

// commit publishes the current flushed state as the archive's durable
// committed prefix: flush buffered block bytes, fsync the data file, then
// atomically replace the checkpoint — the write-ahead ordering the crash
// recovery relies on. No-op when nothing was flushed since the last commit.
func (w *Writer) commit() error {
	if w.off == w.committed {
		return nil
	}
	if w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("tsdb: flush: %w", err)
			return w.err
		}
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("tsdb: sync: %w", err)
			return w.err
		}
	}
	w.version++
	if err := writeCheckpoint(w.ckptPath, w.off, w.version, w.encodeFooter()); err != nil {
		w.err = err
		return err
	}
	w.committed = w.off
	return nil
}

// Sync flushes every open block and publishes a durable commit, making all
// appended snapshots visible to tailing readers (Reader.Refresh) and
// recoverable after a crash. A follow-mode ingester calls it once per poll
// cycle; blocks it rotates out early are smaller than DefaultBlockPoints,
// which costs some index density but keeps readers at most one poll behind.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if !w.live {
		return errors.New("tsdb: Sync requires an OpenAppend writer")
	}
	// Force the header out even when nothing was appended yet: the first
	// Sync of a fresh archive then commits a valid empty state, so a
	// tailing reader can open the file before the first snapshot lands.
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if err := w.ensureRollupState(); err != nil {
		return err
	}
	if err := w.ensureEventState(); err != nil {
		return err
	}
	if err := w.flushOpen(); err != nil {
		return err
	}
	return w.commit()
}

// Close flushes every open block, writes the footer, and closes the
// underlying file when the writer owns one. The writer is unusable after.
// A live writer commits a final checkpoint before the footer lands and
// deletes the checkpoint after — every crash point during Close leaves
// either a recoverable live archive or a complete closed one.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.finish()
	}
	if w.bw != nil {
		if ferr := w.bw.Flush(); ferr != nil && w.err == nil {
			w.err = fmt.Errorf("tsdb: flush: %w", ferr)
		}
	}
	if w.live && w.err == nil {
		// The footer must be durable before the checkpoint disappears, or a
		// crash here would leave a footer-less file with no commit record.
		if serr := w.f.Sync(); serr != nil {
			w.err = fmt.Errorf("tsdb: sync: %w", serr)
		} else if rerr := os.Remove(w.ckptPath); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			w.err = fmt.Errorf("tsdb: %w", rerr)
		}
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); cerr != nil && w.err == nil {
			w.err = fmt.Errorf("tsdb: close: %w", cerr)
		}
	}
	return w.err
}

// flushOpen flushes the open blocks in map-id order so the byte output is
// a pure function of the append sequence.
func (w *Writer) flushOpen() error {
	ids := make([]string, 0, len(w.open))
	for id := range w.open {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := w.flushBlock(wmap.MapID(id), w.open[wmap.MapID(id)]); err != nil {
			return err
		}
		delete(w.open, wmap.MapID(id))
		// The same flush event a rotation fires: whether a raw block lands
		// here or in Append, the rollup flush decision sees the same state.
		if err := w.flushRollups(wmap.MapID(id), false); err != nil {
			return err
		}
		if err := w.flushEvents(wmap.MapID(id)); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) finish() error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if err := w.ensureRollupState(); err != nil {
		return err
	}
	if err := w.ensureEventState(); err != nil {
		return err
	}
	if err := w.flushOpen(); err != nil {
		return err
	}
	// Drain every remaining sealed bucket; partial current buckets are
	// discarded — their points replay from raw blocks on a future resume.
	if err := w.flushFinalRollups(); err != nil {
		return err
	}
	// Defensive: flushOpen already drained every map with an open block, and
	// pending events only exist alongside open-block points, so this writes
	// nothing in practice — but a frame here beats silently dropped events.
	if err := w.flushFinalEvents(); err != nil {
		return err
	}
	if w.live {
		if err := w.commit(); err != nil {
			return err
		}
	}
	footer := w.encodeFooter()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(footer))
	var flen [8]byte
	binary.LittleEndian.PutUint64(flen[:], uint64(len(footer)))
	return w.writeAll(footer, sum[:], flen[:], []byte(tailMagic))
}
