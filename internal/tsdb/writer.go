package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
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
	frame
	mapRef    uint64 // string-table id of the map id
	topoIndex int
	baseUnix  int64 // first snapshot time, unix seconds
	lastUnix  int64 // last snapshot time, unix seconds
	points    int
	links     int
}

// openBlock accumulates one map's current window before encoding. Its 2L
// load columns (link i stores AB at column 2i, BA at 2i+1) share one slab
// and grow together, so a point allocates only when every column is full.
type openBlock struct {
	topoIndex int
	times     []int64
	ncols     int
	stride    int         // points each column has room for
	loads     []wmap.Load // column c holds its points at loads[c*stride:]
	synced    int         // leading points a head frame already holds (live writers)
}

// col returns column c's points.
func (ob *openBlock) col(c int) []wmap.Load {
	return ob.loads[c*ob.stride : c*ob.stride+len(ob.times)]
}

// add appends one point: the snapshot time and the links' loads.
//
//wm:hotpath
func (ob *openBlock) add(t int64, links []wmap.Link) {
	n := len(ob.times)
	if n == ob.stride {
		ob.grow(1)
	}
	for i := range links {
		ob.loads[2*i*ob.stride+n] = links[i].LoadAB
		ob.loads[(2*i+1)*ob.stride+n] = links[i].LoadBA
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
	version   uint64 // last published commit version, checkpoint or head frame
	committed int64  // data length the last checkpoint covered
	// committedStrs and committedTopos are the dictionary sizes the last
	// checkpoint covered: head frames reference only those entries.
	committedStrs, committedTopos int

	// Head sidecar state (live writers); see head.go.
	headPath string
	head     *os.File // nil until a Sync first has points to write
	headSize int64    // head file length
	// headLive is each map's live head bytes: entries its next seal turns
	// dead. Everything else in the head is dead.
	headLive map[wmap.MapID]int64
	// evSynced counts each map's pending events a head frame already holds.
	evSynced map[wmap.MapID]int
	// Scratch buffers a Sync encodes its head frame in.
	headRaw, headEvs, headBuf, frameBuf []byte

	blockPoints int

	strIDs map[string]uint64
	strs   []string

	topos []*wmap.Topology

	open  map[wmap.MapID]*openBlock
	last  map[wmap.MapID]int64
	index []blockMeta

	// resumed flips at the first append/sync/close (ensureResumed), after
	// which the rollup resolutions and the event-detection settings are
	// frozen and, on a resumed archive, the accumulators and detectors
	// have been rebuilt from the committed raw blocks.
	resumed bool
	// ix is the index of the commit OpenAppend resumed from, kept until
	// ensureResumed has read the rollup and event frontiers from it.
	ix *commitIndex

	// Rollup tier state; see rollup.go.
	rollupRes []int64 // tier resolutions in seconds, ascending
	rollups   []rollupMeta
	accs      map[wmap.MapID][]*rollupAcc

	// Event-log state; see event_log.go.
	evEnabled bool
	evDB      *peeringdb.DB
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
		open:        make(map[wmap.MapID]*openBlock),
		last:        make(map[wmap.MapID]int64),
		rollupRes:   res,
		accs:        make(map[wmap.MapID][]*rollupAcc),
		evEnabled:   true,
		detectors:   make(map[wmap.MapID]*events.Detector),
		evPending:   make(map[wmap.MapID][]events.Event),
		headLive:    make(map[wmap.MapID]int64),
		evSynced:    make(map[wmap.MapID]int),
	}
}

// Create creates (or truncates) an archive file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	// The data file's own directory entry must survive a power loss too.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w := NewWriter(bw)
	w.bw, w.closer = bw, f
	return w, nil
}

// OpenAppend opens path as a live archive for appending, creating it when
// absent. It is the single-writer end of the live-append protocol: every
// sealed block is followed by a durable checkpoint commit, every Sync by a
// durable head frame, concurrent Readers tail the growing archive via
// Refresh, and Close turns the result into a byte-for-byte normal closed
// archive.
//
// OpenAppend recovers whatever state a previous writer left behind:
//
//   - An empty or missing file starts a fresh archive.
//   - A checkpointed (live) archive resumes from its last commit; any
//     uncommitted tail past the committed offset — a torn write from a
//     crash mid-append — is truncated away. The last committed block's
//     checksum is re-verified so damage inside the committed prefix
//     surfaces here as a *CorruptError rather than as a wrong read later.
//     The head sidecar's live points become the open blocks again, so
//     every snapshot of a Sync that returned is back (LastTime counts
//     them); a torn head frame is truncated at the last whole frame.
//   - A closed archive is reopened: its footer becomes the first
//     checkpoint, then the footer and tail are truncated off and blocks
//     append where the data section ended. (The checkpoint is committed
//     before the truncate, so a crash between the two still recovers.) A
//     head left beside it by an interrupted Close adds nothing and goes.
//
// Anything else — a file that is neither empty, nor checkpointed, nor a
// valid closed archive, or a head frame whose checksum holds over content
// the commit cannot explain — fails with a typed *CorruptError. Recovery
// never silently drops committed data: it restores exactly the committed
// prefix and the synced head or refuses.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	w := NewWriter(nil)
	w.f, w.closer, w.live = f, f, true
	w.ckptPath, w.headPath = CheckpointPath(path), headPath(path)
	if err := w.recover(); err != nil {
		f.Close()
		if w.head != nil {
			w.head.Close()
		}
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
// commit state and truncates whatever lies past the committed data.
func (w *Writer) recover() error {
	c, err := loadCommitted(w.f, w.ckptPath, nil)
	if c == nil {
		if err != nil {
			return err
		}
		// A fresh archive: a head needs a commit before it, so any head
		// here is stale.
		return removeStale(w.headPath)
	}
	w.ix = &commitIndex{}
	if err := w.ix.extend(c.fd); err != nil {
		return err
	}
	if c.live {
		// The committed tail must be intact before the uncommitted rest goes.
		if err := verifyTailBlock(w.f, c.fd, c.dataEnd); err != nil {
			return err
		}
		w.version = c.version
	} else {
		// Turn the closed archive's footer into the first commit, then
		// truncate the footer and tail off so blocks append where the data
		// section ended. Commit-before-truncate keeps every crash point
		// recoverable: writeCheckpoint returns once the rename is durable.
		// A head left by a Close interrupted after its checkpoint went is
		// covered by the footer; it must go before a checkpoint would make
		// it live again.
		if err := removeStale(w.headPath); err != nil {
			return err
		}
		w.version = 1
		if err := writeCheckpoint(w.ckptPath, c.dataEnd, w.version, c.payload); err != nil {
			return err
		}
	}
	if err := w.f.Truncate(c.dataEnd); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	w.off, w.committed = c.dataEnd, c.dataEnd
	w.restore(c.fd)
	w.committedStrs, w.committedTopos = len(w.strs), len(w.topos)
	if !c.live {
		return nil
	}
	return w.recoverHead()
}

// recoverHead replays the head sidecar over the restored commit: its live
// points become the maps' open blocks (already synced), its live bytes are
// tallied, and a torn tail past the last whole frame is truncated away.
func (w *Writer) recoverHead() error {
	gen, buf, start, size, err := readHeadFile(w.headPath, 0, 0)
	if err != nil {
		return err
	}
	if gen == 0 {
		return removeStale(w.headPath) // no head, or one too short to hold a frame
	}
	n, err := scanHead(buf, start, w.strs, w.topos, func(hf *headFrame) error {
		w.version = max(w.version, hf.version)
		return w.replayHead(hf, w.ix.lives)
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(w.headPath, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("tsdb: head: %w", err)
	}
	w.head, w.headSize = f, start+int64(n)
	if w.headSize < size {
		if err := f.Truncate(w.headSize); err != nil {
			return fmt.Errorf("tsdb: head: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("tsdb: head: %w", err)
		}
	}
	if _, err := f.Seek(w.headSize, io.SeekStart); err != nil {
		return fmt.Errorf("tsdb: head: %w", err)
	}
	for id, ob := range w.open {
		ob.synced = len(ob.times)
		w.last[id] = ob.times[len(ob.times)-1]
		w.snapshots += len(ob.times)
	}
	return nil
}

// replayHead adds a head frame's live points to the open blocks and its
// live entries to the writer's live-byte tally. The frame's framing is
// charged to its first live entry's map, as headFrame charges it.
func (w *Writer) replayHead(hf *headFrame, hl headLives) error {
	overhead := int64(hf.size)
	var first wmap.MapID
	charge := func(id wmap.MapID, n int) {
		if first == "" {
			first = id
		}
		w.headLive[id] += int64(n)
		overhead -= int64(n)
	}
	for i := range hf.raw {
		e := &hf.raw[i]
		id := wmap.MapID(w.strs[e.mapRef])
		ob := w.open[id]
		k, err := hl.get(id).liveFrom(e, ob, id)
		if err != nil {
			return err
		}
		if k == len(e.times) {
			overhead -= int64(e.size)
			continue
		}
		if ob == nil {
			ob = &openBlock{topoIndex: e.topoIndex, ncols: 2 * len(w.topos[e.topoIndex].Links())}
			w.open[id] = ob
		}
		addColumns(ob, e.times[k:], e.loads[k:], len(e.times))
		charge(id, e.size)
	}
	for i := range hf.evs {
		e := &hf.evs[i]
		id := wmap.MapID(w.strs[e.mapRef])
		if e.lastPoint <= hl.get(id).evFront {
			overhead -= int64(e.size)
			continue
		}
		charge(id, e.size)
	}
	if first != "" {
		w.headLive[first] += overhead
	}
	return nil
}

// removeStale deletes a head sidecar that holds nothing live.
func removeStale(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("tsdb: head: %w", err)
	}
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
	last := fd.blocks[0].frame
	for _, m := range fd.blocks[1:] {
		if m.offset > last.offset {
			last = m.frame
		}
	}
	// Rollup and event frames written after the last raw block extend the
	// tail; each must be contiguous with and checked like the frame before it.
	tail := []frame{last}
	for _, m := range fd.rollups {
		if m.offset > last.offset {
			tail = append(tail, m.frame)
		}
	}
	for _, m := range fd.events {
		if m.offset > last.offset {
			tail = append(tail, m.frame)
		}
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a].offset < tail[b].offset })
	end := last.offset
	for _, f := range tail {
		if f.offset != end {
			return corruptf(f.offset, "frame at %d not contiguous with committed tail at %d", f.offset, end)
		}
		end = f.end()
	}
	if end != dataEnd {
		return corruptf(dataEnd, "last committed frame ends at %d, checkpoint commits %d", end, dataEnd)
	}
	for _, f := range tail {
		if err := checkFrame(r, dataEnd, f, "committed frame"); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the writer's interning tables and clocks from parsed
// footer data and its index, as if every indexed block had just been
// flushed.
func (w *Writer) restore(fd *footerData) {
	w.strs = fd.strs
	for i, s := range fd.strs {
		w.strIDs[s] = uint64(i)
	}
	w.topos = fd.topos
	w.index = fd.blocks
	w.rollups = fd.rollups
	w.evIndex = fd.events
	for _, id := range w.ix.sealed {
		w.last[id] = w.ix.lives[id].sealedLast
		w.snapshots += w.ix.snaps[id]
	}
}

// ensureResumed rebuilds, once, the writer state a resumed archive keeps
// outside the file: the rollup accumulators' unflushed points and the event
// detectors. It runs at the first append/sync/close, so
// SetRollupResolutions and SetEventDetection still apply after OpenAppend,
// and it decodes each committed raw block at most once for both. The open
// blocks recovered from the head replay last, as the newest points; the
// events they re-pend are the ones the head already holds.
//
// Rollups replay only the points past each (map, resolution) tier's
// frontier, the newest point any flushed rollup block of that tier covers
// (the tier's maxLast in the commit index). Detectors replay every block,
// because their hysteresis sets, debounce pendings and upgrade trackers
// depend on the whole history, and re-pend only the emissions past the
// map's event frontier, the newest lastPoint of its flushed frames (its
// evFront in the index), which is dropped after the replay. At every
// commit the flushed frames cover exactly what lies up to the frontiers,
// so the rebuilt state equals the crashed writer's and the resumed byte
// stream matches a writer that never stopped. Nothing is written here:
// runs retired by a topology change crossed in the replay (a migrated v1
// archive) flush at the first flush event.
//
// A corrupt raw block switches off (logged) whatever needed it, detection
// always and rollups when the block lies past their frontier, instead of
// failing the resume: recovery only guarantees the committed tail, and
// deeper damage still fails typed when read.
func (w *Writer) ensureResumed() error {
	if w.resumed {
		return nil
	}
	ix := w.ix
	w.resumed, w.ix = true, nil
	if ix == nil || (len(w.index) == 0 && len(w.open) == 0) {
		return nil
	}
	// w.index is in flush order, which is chronological per map.
	for i := range w.index {
		bm := &w.index[i]
		id := wmap.MapID(w.strs[bm.mapRef])
		var accs []*rollupAcc
		rollups := false
		if w.rollupEnabled() {
			accs = w.rollupAccs(id)
			for _, acc := range accs {
				if tier := tierOf(ix.rollupTiers[id], acc.res); tier == nil || bm.lastUnix > tier.maxLast {
					rollups = true
				}
			}
		}
		if !rollups && !w.evEnabled {
			continue
		}
		db, err := decodeBlockAt(w.f, w.off, bm, allColumns)
		var ce *CorruptError
		switch {
		case errors.As(err, &ce):
			if rollups {
				log.Printf("tsdb: resume: cannot rebuild rollup state, disabling rollups for this writer: %v", err)
				w.rollupRes = nil
				w.accs = make(map[wmap.MapID][]*rollupAcc)
			}
			if w.evEnabled {
				log.Printf("tsdb: resume: cannot rebuild event state, disabling event detection for this writer: %v", err)
				w.evEnabled = false
				w.detectors = make(map[wmap.MapID]*events.Detector)
				w.evPending = make(map[wmap.MapID][]events.Event)
			}
			continue
		case err != nil:
			return err
		}
		if rollups {
			replayRollups(accs, ix.rollupTiers[id], bm, db)
		}
		if w.evEnabled {
			w.replayEvents(id, ix.lives.get(id).evFront, bm, db)
		}
	}
	for _, id := range sortedIDs(w.open) {
		ob := w.open[id]
		bm, db := ob.decoded(w.strIDs[string(id)])
		if w.rollupEnabled() {
			replayRollups(w.rollupAccs(id), ix.rollupTiers[id], bm, db)
		}
		if w.evEnabled {
			w.replayEvents(id, ix.lives.get(id).evFront, bm, db)
		}
		w.evSynced[id] = len(w.evPending[id])
	}
	return nil
}

// decoded returns the open block's points as an index row and a decoded
// block, the form the resume replay and the reader's head queries take.
func (ob *openBlock) decoded(mapRef uint64) (*blockMeta, *decodedBlock) {
	n := len(ob.times)
	bm := &blockMeta{mapRef: mapRef, topoIndex: ob.topoIndex, baseUnix: ob.times[0],
		lastUnix: ob.times[n-1], points: n, links: ob.ncols / 2}
	db := &decodedBlock{meta: bm, times: ob.times[:n:n], cols: make([][]wmap.Load, ob.ncols)}
	slab := make([]wmap.Load, ob.ncols*n)
	for c := range db.cols {
		db.cols[c] = slab[c*n : (c+1)*n : (c+1)*n]
		copy(db.cols[c], ob.col(c))
	}
	return bm, db
}

// SetBlockPoints overrides the per-block snapshot capacity. It only affects
// blocks opened after the call; tests use it to force block rotation.
func (w *Writer) SetBlockPoints(n int) {
	if n > 0 {
		w.blockPoints = n
	}
}

// Stats returns the running totals. Blocks counts sealed raw blocks;
// Snapshots counts every appended snapshot, sealed or not. Bytes is what
// the archive occupies: the data written so far plus, on a live writer,
// the head sidecar's length; it is final only after Close.
func (w *Writer) Stats() ArchiveStats {
	return ArchiveStats{
		Blocks:       len(w.index),
		RollupBlocks: len(w.rollups),
		EventBlocks:  len(w.evIndex),
		Snapshots:    w.snapshots,
		Topologies:   len(w.topos),
		Strings:      len(w.strs),
		Bytes:        w.off + w.headSize,
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
// tried first: between topology changes it matches. A change searches the
// table newest first, where a skeleton that flaps back sits.
func (w *Writer) internTopology(m *wmap.Map) (int, error) {
	cur := -1
	if ob := w.open[m.ID]; ob != nil {
		cur = ob.topoIndex
	} else if accs := w.accs[m.ID]; len(accs) > 0 && accs[0].run != nil {
		cur = accs[0].run.topoIndex
	}
	if cur >= 0 && w.topos[cur].Matches(m) {
		return cur, nil
	}
	for i := len(w.topos) - 1; i >= 0; i-- {
		if w.topos[i].Matches(m) {
			return i, nil
		}
	}
	t, err := newTopology(m)
	if err != nil {
		return 0, err
	}
	for _, n := range t.Nodes() {
		w.intern(n.Name)
	}
	for _, l := range t.Links() {
		w.intern(l.A)
		w.intern(l.B)
		w.intern(l.LabelA)
		w.intern(l.LabelB)
	}
	w.topos = append(w.topos, t)
	return len(w.topos) - 1, nil
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
	if err := w.ensureResumed(); err != nil {
		return err
	}
	if _, ok := w.last[m.ID]; !ok {
		// Interned before its first point, so a head frame can name the
		// map by a committed string id; batch and live writers intern
		// alike and their string tables stay byte-identical.
		w.intern(string(m.ID))
	}
	ti, err := w.internTopology(m)
	if err != nil {
		return err
	}
	// Flush events happen before the new point is accumulated anywhere, so
	// the rollup state observed at a raw-block flush is the same in a
	// batch writer, a live one, and one resumed from its head — the
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
		if err := w.flushDerived(m.ID); err != nil {
			return err
		}
		// A live archive publishes a durable commit after every block that
		// seals (and after topology-change fragments): the sealed points
		// leave the head, whose entries for them are dead from here on.
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
		w.evObserve(m, w.topos[ti])
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
// framed by writeFrame.
func (w *Writer) flushBlock(id wmap.MapID, ob *openBlock) error {
	n := len(ob.times)
	if n == 0 {
		return nil
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
	f, err := w.writeFrame(payload)
	if err != nil {
		return err
	}
	w.index = append(w.index, blockMeta{
		frame:     f,
		mapRef:    w.strIDs[string(id)],
		topoIndex: ob.topoIndex,
		baseUnix:  ob.times[0],
		lastUnix:  ob.times[n-1],
		points:    n,
		links:     L,
	})
	delete(w.headLive, id) // the sealed block covers every head point of the map
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
	var prevNodes []wmap.Node
	var prevLinks []wmap.Link
	for _, t := range w.topos {
		nodes, links := t.Nodes(), t.Links()
		np, lp := 0, 0
		for np < len(prevNodes) && np < len(nodes) && prevNodes[np] == nodes[np] {
			np++
		}
		for lp < len(prevLinks) && lp < len(links) && prevLinks[lp] == links[lp] {
			lp++
		}
		buf = binary.AppendUvarint(buf, uint64(np))
		buf = binary.AppendUvarint(buf, uint64(len(nodes)-np))
		for _, n := range nodes[np:] {
			buf = binary.AppendUvarint(buf, w.strIDs[n.Name])
			kind := byte(0)
			if n.Kind == wmap.Peering {
				kind = 1
			}
			buf = append(buf, kind)
		}
		buf = binary.AppendUvarint(buf, uint64(lp))
		buf = binary.AppendUvarint(buf, uint64(len(links)-lp))
		for _, l := range links[lp:] {
			buf = binary.AppendUvarint(buf, w.strIDs[l.A])
			buf = binary.AppendUvarint(buf, w.strIDs[l.B])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelA])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelB])
		}
		prevNodes, prevLinks = nodes, links
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
// recovery relies on. No-op when neither data nor the dictionary grew
// since the last commit.
func (w *Writer) commit() error {
	if w.off == w.committed && len(w.strs) == w.committedStrs && len(w.topos) == w.committedTopos {
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
	w.committedStrs, w.committedTopos = len(w.strs), len(w.topos)
	return nil
}

// Sync makes every appended snapshot durable and visible to tailing
// readers (Reader.Refresh). It seals nothing: the points appended since the
// previous Sync, and the events detected on them, go to the head sidecar as
// one frame, and Sync returns once that frame is fsynced. A new map or
// topology commits a checkpoint first, since head frames only reference
// committed dictionary entries. Blocks seal where the batch writer seals
// them, so the cadence of Sync never shows in the data file. A follow-mode
// ingester calls it once per poll cycle.
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
	if err := w.ensureResumed(); err != nil {
		return err
	}
	hb := w.headEntries(false)
	if err := w.commit(); err != nil {
		return err
	}
	if hb.nraw+hb.nev == 0 {
		return nil
	}
	w.version++
	if err := w.appendHead(w.headFrame(&hb)); err != nil {
		w.err = err
		return err
	}
	for id, ob := range w.open {
		ob.synced = len(ob.times)
		w.evSynced[id] = len(w.evPending[id])
	}
	var live int64
	for _, n := range w.headLive {
		live += n
	}
	if dead := w.headSize - int64(headHeaderLen) - live; dead > live {
		if err := w.compactHead(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// headBatch is the content of one head frame: its raw and event entries,
// encoded, and the map its framing is charged to.
type headBatch struct {
	raw, evs  []byte
	nraw, nev int
	first     wmap.MapID
}

// headEntries encodes, per map in id order, the open block's points and the
// pending events a head frame does not hold yet (all of them when all is
// set, for a compaction), and charges each entry to its map's live bytes.
// The encodings reuse the writer's scratch buffers.
func (w *Writer) headEntries(all bool) headBatch {
	hb := headBatch{raw: w.headRaw[:0], evs: w.headEvs[:0]}
	charge := func(id wmap.MapID, n int) {
		if hb.nraw+hb.nev == 0 {
			hb.first = id
		}
		w.headLive[id] += int64(n)
	}
	for _, id := range sortedIDs(w.open) {
		ob := w.open[id]
		lo := ob.synced
		if all {
			lo = 0
		}
		if lo == len(ob.times) {
			continue
		}
		n := len(hb.raw)
		hb.raw = appendHeadRaw(hb.raw, w.strIDs[string(id)], ob, lo, len(ob.times))
		charge(id, len(hb.raw)-n)
		hb.nraw++
	}
	for _, id := range sortedIDs(w.evPending) {
		pend := w.evPending[id]
		lo := w.evSynced[id]
		if all {
			lo = 0
		}
		if lo == len(pend) {
			continue
		}
		n := len(hb.evs)
		hb.evs, _, _ = w.appendEventPayload(hb.evs, id, w.last[id], pend[lo:])
		charge(id, len(hb.evs)-n)
		hb.nev++
	}
	w.headRaw, w.headEvs = hb.raw, hb.evs
	return hb
}

// headFrame frames a head batch at the current version and charges the
// framing to the batch's first map, as replayHead does.
func (w *Writer) headFrame(hb *headBatch) []byte {
	payload := w.headBuf[:0]
	payload = binary.AppendUvarint(payload, w.version)
	payload = binary.AppendUvarint(payload, uint64(hb.nraw))
	payload = append(payload, hb.raw...)
	payload = binary.AppendUvarint(payload, uint64(hb.nev))
	payload = append(payload, hb.evs...)
	w.headBuf = payload
	frame := appendFrame(w.frameBuf[:0], payload)
	w.frameBuf = frame
	w.headLive[hb.first] += int64(len(frame) - len(hb.raw) - len(hb.evs))
	return frame
}

// appendHead appends one framed head frame and fsyncs it, creating the
// head on the first call.
func (w *Writer) appendHead(frame []byte) error {
	if w.head == nil {
		f, _, err := createHead(w.headPath, frame)
		if err != nil {
			return err
		}
		w.head, w.headSize = f, int64(headHeaderLen+len(frame))
		return nil
	}
	n, err := w.head.Write(frame)
	w.headSize += int64(n)
	if err == nil {
		err = w.head.Sync()
	}
	if err != nil {
		return fmt.Errorf("tsdb: head: %w", err)
	}
	return nil
}

// compactHead replaces the head with a new generation holding one frame of
// every live point and synced event, once dead bytes outweigh live ones.
// Each compaction rewrites fewer bytes than went dead since the previous
// one, so the rewrite cost is amortized O(1) per point.
func (w *Writer) compactHead() error {
	clear(w.headLive)
	var frame []byte
	if hb := w.headEntries(true); hb.nraw+hb.nev > 0 {
		frame = w.headFrame(&hb)
	}
	f, _, err := createHead(w.headPath, frame)
	if err != nil {
		return err
	}
	w.head.Close()
	w.head, w.headSize = f, int64(headHeaderLen+len(frame))
	return nil
}

// Close seals every open block, writes the footer, and closes the
// underlying file when the writer owns one. The writer is unusable after.
// A live writer commits a final checkpoint before the footer lands, then
// deletes the checkpoint and, last, the head, whose every point the final
// commit covers — every crash point during Close leaves either a
// recoverable live archive or a complete closed one.
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
		} else if rerr := removeStale(w.headPath); rerr != nil {
			w.err = rerr
		} else {
			w.headSize = 0
		}
	}
	if w.head != nil {
		w.head.Close()
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); cerr != nil && w.err == nil {
			w.err = fmt.Errorf("tsdb: close: %w", cerr)
		}
	}
	return w.err
}

// flushOpen seals the open blocks at Close in map-id order, so the byte
// output is a pure function of the append sequence.
func (w *Writer) flushOpen() error {
	for _, id := range sortedIDs(w.open) {
		if err := w.flushBlock(id, w.open[id]); err != nil {
			return err
		}
		delete(w.open, id)
		// The same flush event a rotation fires.
		if err := w.flushDerived(id); err != nil {
			return err
		}
	}
	return nil
}

// flushDerived is the per-map flush event that follows every raw-block
// flush and topology change: the map's rollup frames, then its event frame.
// Both fire from the append sequence alone, so batch and live writers
// produce identical bytes, and a commit after it covers exactly the events
// the committed raw blocks imply.
func (w *Writer) flushDerived(id wmap.MapID) error {
	if err := w.flushRollups(id, false); err != nil {
		return err
	}
	return w.flushEvents(id)
}

// sortedIDs returns m's map ids in order, so every per-map flush loop
// writes bytes that are a pure function of the append sequence.
func sortedIDs[V any](m map[wmap.MapID]V) []wmap.MapID {
	ids := make([]wmap.MapID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (w *Writer) finish() error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if err := w.ensureResumed(); err != nil {
		return err
	}
	if err := w.flushOpen(); err != nil {
		return err
	}
	// Drain every remaining sealed bucket; partial current buckets are
	// discarded — their points replay from raw blocks on a future resume.
	for _, id := range sortedIDs(w.accs) {
		if err := w.flushRollups(id, true); err != nil {
			return err
		}
	}
	// Defensive: flushOpen already drained every map with an open block, and
	// pending events only exist alongside open-block points, so this writes
	// nothing in practice — but a frame here beats silently dropped events.
	for _, id := range sortedIDs(w.evPending) {
		if err := w.flushEvents(id); err != nil {
			return err
		}
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
