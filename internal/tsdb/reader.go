package tsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovhweather/internal/wmap"
)

// Reader serves queries over one archive. Opening parses only the commit
// metadata — string table, topology dictionary, block index — from the
// footer of a closed archive or the checkpoint sidecar of a live one;
// block payloads are read and decoded on demand, so a point or range query
// touches O(log n) index entries plus the overlapping blocks.
//
// A Reader is safe for concurrent use. All parsed metadata lives in an
// immutable readerState behind an atomic pointer: queries pin the state
// once on entry, and Refresh atomically swaps in a newer committed state
// without invalidating anything in flight — a Cursor keeps iterating the
// exact snapshot of the archive it opened with (snapshot isolation), while
// the next query observes the extended prefix. The committed block region
// of a live archive is append-only, so blocks referenced by an old state
// remain valid bytes forever.
type Reader struct {
	r      io.ReaderAt
	f      *os.File // non-nil when opened from a file; enables Refresh
	path   string
	closer io.Closer

	// cacheID keys the decoded-block cache. It is the fingerprint of the
	// state the reader OPENED with and never changes across Refresh: block
	// index bi always denotes the same immutable bytes in an append-only
	// archive, so decoded blocks stay valid as the archive grows — only
	// the ETag-facing Fingerprint rolls forward.
	cacheID uint64

	// cache, when set, holds immutable decoded blocks shared across
	// queries and readers; see SetBlockCache.
	cache *BlockCache

	// refreshMu serializes Refresh so two concurrent refreshes cannot
	// publish states out of order (the older one clobbering the newer).
	// Queries never take it — they only load the atomic pointer.
	refreshMu sync.Mutex
	state     atomic.Pointer[readerState]

	// planner tallies which path served each stepped per-link query;
	// rollupOff, set only by tests, makes the planner decline every query
	// so everything takes the raw path. See planner.go.
	planner   plannerCounters
	rollupOff atomic.Bool

	// grid tallies the multi-link grid engine's serving counters; see
	// grid.go.
	grid gridCounters
}

// readerState is one committed view of the archive: everything parsed from
// a footer or checkpoint plus the derived lookup structures. Instances are
// immutable after buildState (the lazily built link directory is guarded by
// its own sync.Once) and shared freely between goroutines.
type readerState struct {
	size    int64 // readable byte bound: file size (closed) or dataEnd (live)
	strs    []string
	topos   []*topology
	blocks  []blockMeta
	rollups []rollupMeta
	events  []eventMeta
	perMap  map[wmap.MapID][]int // block indexes, chronological
	// evPerMap lists each map's event-frame indexes in commit (offset) order.
	evPerMap map[wmap.MapID][]int
	// rollupTiers groups each map's rollup blocks by resolution, ascending;
	// within a tier entries are chronological by first bucket. The planner
	// walks tiers coarsest-first.
	rollupTiers map[wmap.MapID][]rollupTier
	mapIDs      []wmap.MapID
	fp          uint64 // fingerprint: FNV-1a over size and footer/checkpoint payload
	version     uint64 // checkpoint commit version; 0 when parsed from a footer
	live        bool   // state came from a checkpoint (archive may still grow)

	linkDirOnce sync.Once
	linkDir     map[string]linkAddr

	// topoKeys/topoKeyIdx are the per-topology link-key directory the grid
	// engine plans with: keys in column order and the inverse map, built
	// once per state on first grid query (the same lazy discipline as
	// linkDir). A scan resolves each link's column once per topology in
	// range, so planning L links costs O(L·T) map probes for T topologies
	// instead of O(L·B·links) string comparisons over B blocks.
	topoKeyOnce sync.Once
	topoKeys    [][]LinkKey
	topoKeyIdx  []map[LinkKey]int
}

// rollupTier is one map's rollup blocks at one resolution.
type rollupTier struct {
	res     int64
	entries []int // rollup indexes, sorted by (firstBucket, offset)
	maxLast int64 // newest raw point any entry of the tier aggregates
}

// linkAddr locates a query-API link id: the map and the in-map key.
type linkAddr struct {
	mapID wmap.MapID
	key   LinkKey
}

// st returns the current committed state; callers pin it once per
// operation so one query never mixes two commit views.
func (r *Reader) st() *readerState { return r.state.Load() }

// OpenFile opens an archive file for querying: a closed archive through
// its footer, or a live (still-appending) archive through its checkpoint
// sidecar, whichever the commit protocol left behind. Use Refresh to adopt
// blocks committed after the open.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	rd := &Reader{r: f, f: f, path: path, closer: f}
	st, err := rd.loadFileState()
	if err != nil {
		f.Close()
		return nil, err
	}
	rd.cacheID = st.fp
	rd.state.Store(st)
	return rd, nil
}

// NewReader opens a closed archive held by any io.ReaderAt. Structural
// problems — bad magic, truncation, checksum failures, impossible field
// values — return a *CorruptError; NewReader never panics on arbitrary
// input. Readers opened this way have no file to watch, so Refresh is
// unavailable.
//
//lint:ignore wmlint/deadexport in-memory counterpart of NewWriter, the seam the fuzzers and equivalence tests read through
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	st, err := parseClosed(r, size)
	if err != nil {
		return nil, err
	}
	rd := &Reader{r: r, cacheID: st.fp}
	rd.state.Store(st)
	return rd, nil
}

// loadFileState reads the current committed state of the file: the
// checkpoint sidecar when the live-append protocol maintains one, else the
// footer of the closed archive.
func (r *Reader) loadFileState() (*readerState, error) {
	ck, err := readCheckpoint(CheckpointPath(r.path))
	switch {
	case err == nil:
		fi, serr := r.f.Stat()
		if serr != nil {
			return nil, fmt.Errorf("tsdb: %w", serr)
		}
		if fi.Size() < ck.dataEnd {
			return nil, corruptf(fi.Size(), "archive holds %d bytes but the checkpoint committed %d — committed data lost", fi.Size(), ck.dataEnd)
		}
		head, herr := readAtFull(r.r, ck.dataEnd, 0, len(headerMagic))
		if herr != nil {
			return nil, herr
		}
		if string(head) != headerMagic {
			return nil, corruptf(0, "bad header magic %q", head)
		}
		fd, perr := parseFooterData(ck.payload, 0, ck.dataEnd)
		if perr != nil {
			return nil, perr
		}
		return buildState(fd, ck.dataEnd, fingerprintState(ck.dataEnd, ck.payload), ck.version, true)
	case errors.Is(err, fs.ErrNotExist):
		fi, serr := r.f.Stat()
		if serr != nil {
			return nil, fmt.Errorf("tsdb: %w", serr)
		}
		return parseClosed(r.r, fi.Size())
	default:
		return nil, err
	}
}

// Refresh re-reads the archive's durable commit state and, when it has
// advanced, atomically adopts the new committed prefix: subsequent queries
// see the added blocks, the fingerprint (and every ETag derived from it)
// rolls forward, and cursors or scans already running keep their opened
// snapshot untouched. It reports whether anything changed.
//
// Refresh verifies the new state is a strict extension of the current one
// — same blocks, same offsets, only appended entries — and refuses with
// ErrArchiveReplaced otherwise, because a rewritten file would silently
// invalidate decoded-block cache entries and pinned cursors. Replacing an
// archive wholesale requires a fresh Reader.
func (r *Reader) Refresh() (changed bool, err error) {
	if r.f == nil {
		return false, errors.New("tsdb: reader was not opened from a file; Refresh unavailable")
	}
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	ns, err := r.loadFileState()
	if err != nil {
		return false, err
	}
	cur := r.st()
	if ns.fp == cur.fp {
		return false, nil
	}
	if len(ns.blocks) < len(cur.blocks) || len(ns.strs) < len(cur.strs) ||
		len(ns.topos) < len(cur.topos) || len(ns.rollups) < len(cur.rollups) ||
		len(ns.events) < len(cur.events) {
		return false, ErrArchiveReplaced
	}
	for i := range cur.blocks {
		if ns.blocks[i] != cur.blocks[i] {
			return false, ErrArchiveReplaced
		}
	}
	for i := range cur.rollups {
		if ns.rollups[i] != cur.rollups[i] {
			return false, ErrArchiveReplaced
		}
	}
	for i := range cur.events {
		if ns.events[i] != cur.events[i] {
			return false, ErrArchiveReplaced
		}
	}
	r.state.Store(ns)
	return true, nil
}

// Close releases the underlying file when the reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// readAtFull fetches an exact byte range below size, mapping any shortfall
// to corruption.
func readAtFull(r io.ReaderAt, size, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > size {
		return nil, corruptf(off, "read of %d bytes beyond archive size %d", n, size)
	}
	buf := make([]byte, n)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, corruptf(off, "short read: %v", err)
	}
	return buf, nil
}

// readClosedFooter validates a closed archive's framing — header magic,
// tail magic, footer checksum — and returns the raw footer payload and its
// file offset (which is also where the data section ends). OpenAppend uses
// it too, to turn a closed archive's footer back into a live checkpoint.
func readClosedFooter(r io.ReaderAt, size int64) (footer []byte, footerStart int64, err error) {
	minSize := int64(len(headerMagic) + tailLen)
	if size < minSize {
		return nil, 0, corruptf(0, "archive of %d bytes is shorter than the %d-byte minimum", size, minSize)
	}
	head, err := readAtFull(r, size, 0, len(headerMagic))
	if err != nil {
		return nil, 0, err
	}
	if string(head) != headerMagic {
		return nil, 0, corruptf(0, "bad header magic %q", head)
	}
	tail, err := readAtFull(r, size, size-int64(tailLen), tailLen)
	if err != nil {
		return nil, 0, err
	}
	if string(tail[12:]) != tailMagic {
		return nil, 0, corruptf(size-8, "bad tail magic %q (archive not closed?)", tail[12:])
	}
	footerLen := binary.LittleEndian.Uint64(tail[4:12])
	footerStart = size - int64(tailLen) - int64(footerLen)
	if footerLen > math.MaxInt32 || footerStart < int64(len(headerMagic)) {
		return nil, 0, corruptf(size-16, "footer length %d exceeds archive", footerLen)
	}
	footer, err = readAtFull(r, size, footerStart, int(footerLen))
	if err != nil {
		return nil, 0, err
	}
	if sum := crc32.ChecksumIEEE(footer); sum != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, 0, corruptf(footerStart, "footer checksum mismatch")
	}
	return footer, footerStart, nil
}

// parseClosed parses the footer-driven (closed) archive form into a state.
func parseClosed(r io.ReaderAt, size int64) (*readerState, error) {
	footer, footerStart, err := readClosedFooter(r, size)
	if err != nil {
		return nil, err
	}
	fd, err := parseFooterData(footer, footerStart, footerStart)
	if err != nil {
		return nil, err
	}
	return buildState(fd, size, fingerprintState(size, footer), 0, false)
}

// footerData is the raw parsed content of a footer or checkpoint payload.
type footerData struct {
	strs    []string
	topos   []*topology
	blocks  []blockMeta
	rollups []rollupMeta
	events  []eventMeta
}

// parseFooterData decodes a footer payload: the string table, the
// prefix-delta topology dictionary, and the block index. payloadOff is the
// file offset of the payload's first byte (for error positions); dataEnd
// bounds every block frame.
func parseFooterData(payload []byte, payloadOff, dataEnd int64) (*footerData, error) {
	d := &dec{b: payload, off: payloadOff}
	fd := &footerData{}
	nstr, err := d.count("string table")
	if err != nil {
		return nil, err
	}
	fd.strs = make([]string, 0, nstr)
	for i := 0; i < nstr; i++ {
		slen, err := d.uvarint("string length")
		if err != nil {
			return nil, err
		}
		if slen > uint64(d.remaining()) {
			return nil, corruptf(d.abs(), "string of %d bytes exceeds %d remaining", slen, d.remaining())
		}
		b, err := d.bytes(int(slen), "string")
		if err != nil {
			return nil, err
		}
		fd.strs = append(fd.strs, string(b))
	}

	ntopo, err := d.count("topology table")
	if err != nil {
		return nil, err
	}
	var prev *topology
	fd.topos = make([]*topology, 0, ntopo)
	for i := 0; i < ntopo; i++ {
		t, err := fd.parseTopology(d, prev)
		if err != nil {
			return nil, err
		}
		fd.topos = append(fd.topos, t)
		prev = t
	}

	nblk, err := d.count("block index")
	if err != nil {
		return nil, err
	}
	fd.blocks = make([]blockMeta, 0, nblk)
	for i := 0; i < nblk; i++ {
		m, err := fd.parseBlockMeta(d, dataEnd)
		if err != nil {
			return nil, err
		}
		fd.blocks = append(fd.blocks, m)
	}

	// A payload that ends here is the v1 (PR 3–6) format: no rollup index,
	// queries plan against raw blocks only. Otherwise a versioned suffix
	// carries the rollup index (v2) and, since v3, the event-frame index.
	if d.remaining() != 0 {
		ver, err := d.uvarint("footer version")
		if err != nil {
			return nil, err
		}
		if ver != footerVersionRollups && ver != footerVersionEvents {
			return nil, corruptf(d.abs(), "unsupported footer version %d", ver)
		}
		nroll, err := d.count("rollup index")
		if err != nil {
			return nil, err
		}
		fd.rollups = make([]rollupMeta, 0, nroll)
		for i := 0; i < nroll; i++ {
			m, err := fd.parseRollupMeta(d, dataEnd)
			if err != nil {
				return nil, err
			}
			fd.rollups = append(fd.rollups, m)
		}
		if ver >= footerVersionEvents {
			nev, err := d.count("event index")
			if err != nil {
				return nil, err
			}
			fd.events = make([]eventMeta, 0, nev)
			for i := 0; i < nev; i++ {
				m, err := fd.parseEventMeta(d, dataEnd)
				if err != nil {
					return nil, err
				}
				fd.events = append(fd.events, m)
			}
		}
	}
	if d.remaining() != 0 {
		return nil, corruptf(d.abs(), "%d trailing bytes after footer", d.remaining())
	}
	return fd, nil
}

// buildState derives the query-side lookup structures from parsed footer
// data and validates the cross-block invariants.
func buildState(fd *footerData, size int64, fp, version uint64, live bool) (*readerState, error) {
	st := &readerState{
		size:        size,
		strs:        fd.strs,
		topos:       fd.topos,
		blocks:      fd.blocks,
		rollups:     fd.rollups,
		events:      fd.events,
		perMap:      make(map[wmap.MapID][]int),
		evPerMap:    make(map[wmap.MapID][]int),
		rollupTiers: make(map[wmap.MapID][]rollupTier),
		fp:          fp,
		version:     version,
		live:        live,
	}
	for i := range st.blocks {
		id := wmap.MapID(st.strs[st.blocks[i].mapRef])
		st.perMap[id] = append(st.perMap[id], i)
	}
	for i := range st.events {
		id := wmap.MapID(st.strs[st.events[i].mapRef])
		st.evPerMap[id] = append(st.evPerMap[id], i)
	}
	for _, ei := range st.evPerMap {
		sort.Slice(ei, func(a, b int) bool { return st.events[ei[a]].offset < st.events[ei[b]].offset })
	}
	for i := range st.rollups {
		m := &st.rollups[i]
		id := wmap.MapID(st.strs[m.mapRef])
		tiers := st.rollupTiers[id]
		ti := -1
		for k := range tiers {
			if tiers[k].res == m.res {
				ti = k
				break
			}
		}
		if ti < 0 {
			tiers = append(tiers, rollupTier{res: m.res})
			ti = len(tiers) - 1
		}
		tiers[ti].entries = append(tiers[ti].entries, i)
		if m.lastPoint > tiers[ti].maxLast {
			tiers[ti].maxLast = m.lastPoint
		}
		st.rollupTiers[id] = tiers
	}
	for _, tiers := range st.rollupTiers {
		sort.Slice(tiers, func(a, b int) bool { return tiers[a].res < tiers[b].res })
		for k := range tiers {
			es := tiers[k].entries
			sort.Slice(es, func(a, b int) bool {
				ra, rb := &st.rollups[es[a]], &st.rollups[es[b]]
				if ra.firstBucket != rb.firstBucket {
					return ra.firstBucket < rb.firstBucket
				}
				return ra.offset < rb.offset
			})
		}
	}
	for id, bl := range st.perMap {
		sort.Slice(bl, func(a, b int) bool { return st.blocks[bl[a]].baseUnix < st.blocks[bl[b]].baseUnix })
		for k := 1; k < len(bl); k++ {
			prev, cur := &st.blocks[bl[k-1]], &st.blocks[bl[k]]
			if cur.baseUnix <= prev.lastUnix {
				return nil, corruptf(cur.offset, "map %s blocks overlap in time", id)
			}
		}
		st.mapIDs = append(st.mapIDs, id)
	}
	sort.Slice(st.mapIDs, func(a, b int) bool { return st.mapIDs[a] < st.mapIDs[b] })
	return st, nil
}

// parseTopology decodes one prefix-delta dictionary entry: the leading
// nodes and links shared with the previous entry, then the new rows.
func (fd *footerData) parseTopology(d *dec, prev *topology) (*topology, error) {
	np, err := d.uvarint("node prefix")
	if err != nil {
		return nil, err
	}
	prevNodes, prevLinks := 0, 0
	if prev != nil {
		prevNodes, prevLinks = len(prev.nodes), len(prev.links)
	}
	if np > uint64(prevNodes) {
		return nil, corruptf(d.abs(), "node prefix %d exceeds previous topology's %d nodes", np, prevNodes)
	}
	nn, err := d.count("topology nodes")
	if err != nil {
		return nil, err
	}
	t := &topology{nodes: make([]wmap.Node, 0, int(np)+nn)}
	if prev != nil {
		t.nodes = append(t.nodes, prev.nodes[:np]...)
	}
	for i := 0; i < nn; i++ {
		ref, err := d.uvarint("node name ref")
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(fd.strs)) {
			return nil, corruptf(d.abs(), "node name ref %d outside string table of %d", ref, len(fd.strs))
		}
		kb, err := d.byte("node kind")
		if err != nil {
			return nil, err
		}
		kind := wmap.Router
		switch kb {
		case 0:
		case 1:
			kind = wmap.Peering
		default:
			return nil, corruptf(d.abs(), "unknown node kind byte %d", kb)
		}
		t.nodes = append(t.nodes, wmap.Node{Name: fd.strs[ref], Kind: kind})
	}

	lp, err := d.uvarint("link prefix")
	if err != nil {
		return nil, err
	}
	if lp > uint64(prevLinks) {
		return nil, corruptf(d.abs(), "link prefix %d exceeds previous topology's %d links", lp, prevLinks)
	}
	nl, err := d.count("topology links")
	if err != nil {
		return nil, err
	}
	t.links = make([]wmap.Link, 0, int(lp)+nl)
	if prev != nil {
		t.links = append(t.links, prev.links[:lp]...)
	}
	for i := 0; i < nl; i++ {
		var refs [4]uint64
		for j := range refs {
			ref, err := d.uvarint("link string ref")
			if err != nil {
				return nil, err
			}
			if ref >= uint64(len(fd.strs)) {
				return nil, corruptf(d.abs(), "link string ref %d outside string table of %d", ref, len(fd.strs))
			}
			refs[j] = ref
		}
		t.links = append(t.links, wmap.Link{
			A: fd.strs[refs[0]], B: fd.strs[refs[1]],
			LabelA: fd.strs[refs[2]], LabelB: fd.strs[refs[3]],
		})
	}
	return t, nil
}

func (fd *footerData) parseBlockMeta(d *dec, dataEnd int64) (blockMeta, error) {
	var m blockMeta
	var raw [8]uint64
	for i := range raw {
		v, err := d.uvarint("block index field")
		if err != nil {
			return m, err
		}
		raw[i] = v
	}
	m.mapRef = raw[0]
	m.offset = int64(raw[1])
	m.payloadLen = int(raw[2])
	m.topoIndex = int(raw[3])
	m.baseUnix = int64(raw[4])
	m.lastUnix = int64(raw[5])
	m.points = int(raw[6])
	m.links = int(raw[7])
	switch {
	case m.mapRef >= uint64(len(fd.strs)):
		return m, corruptf(d.abs(), "block map ref %d outside string table of %d", m.mapRef, len(fd.strs))
	case raw[3] >= uint64(len(fd.topos)):
		return m, corruptf(d.abs(), "block topology index %d outside table of %d", raw[3], len(fd.topos))
	case m.links != len(fd.topos[m.topoIndex].links):
		return m, corruptf(d.abs(), "block link count %d disagrees with topology's %d",
			m.links, len(fd.topos[m.topoIndex].links))
	case m.points < 1:
		return m, corruptf(d.abs(), "block with %d points", m.points)
	case raw[4] > maxUnixSeconds || m.lastUnix < m.baseUnix:
		return m, corruptf(d.abs(), "block time range [%d, %d] invalid", m.baseUnix, m.lastUnix)
	case m.offset < int64(len(headerMagic)) || raw[2] > math.MaxInt32 ||
		m.offset+int64(frameOverhead)+int64(m.payloadLen) > dataEnd:
		return m, corruptf(d.abs(), "block frame [%d, +%d] outside data section", m.offset, m.payloadLen)
	}
	return m, nil
}

// Maps lists the archived map ids in lexicographic order.
func (r *Reader) Maps() []wmap.MapID {
	st := r.st()
	return append([]wmap.MapID(nil), st.mapIDs...)
}

// Bounds returns a map's first and last snapshot times.
func (r *Reader) Bounds(id wmap.MapID) (from, to time.Time, ok bool) {
	return r.st().bounds(id)
}

func (st *readerState) bounds(id wmap.MapID) (from, to time.Time, ok bool) {
	bl := st.perMap[id]
	if len(bl) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(st.blocks[bl[0]].baseUnix, 0).UTC(),
		time.Unix(st.blocks[bl[len(bl)-1]].lastUnix, 0).UTC(), true
}

// Snapshots returns a map's archived snapshot count.
func (r *Reader) Snapshots(id wmap.MapID) int {
	st := r.st()
	n := 0
	for _, bi := range st.perMap[id] {
		n += st.blocks[bi].points
	}
	return n
}

// Stats summarizes the archive's current committed state.
func (r *Reader) Stats() ArchiveStats {
	st := r.st()
	s := ArchiveStats{
		Blocks:       len(st.blocks),
		RollupBlocks: len(st.rollups),
		EventBlocks:  len(st.events),
		Topologies:   len(st.topos),
		Strings:      len(st.strs),
		Bytes:        st.size,
	}
	for i := range st.blocks {
		s.Snapshots += st.blocks[i].points
	}
	return s
}

// Fingerprint identifies the archive's exact committed contents: an FNV-1a
// hash of the committed size and footer/checkpoint payload (which in turn
// checksum every block). It keys the API's ETags and rolls forward on
// every Refresh that adopts new data.
func (r *Reader) Fingerprint() uint64 { return r.st().fp }

// Version is the commit version of the state being served: the live
// checkpoint's monotonic counter, or 0 for a closed archive's footer.
func (r *Reader) Version() uint64 { return r.st().version }

// Live reports whether the reader is serving a live checkpoint — an
// archive that may still be appended to — rather than a closed footer.
func (r *Reader) Live() bool { return r.st().live }

// SetBlockCache attaches a decoded-block cache. Set it right after open,
// before the reader serves concurrent queries; a nil cache disables
// caching. One cache may back several readers — keys carry the reader's
// open-time archive fingerprint, so two readers share entries when they
// opened the same committed state.
func (r *Reader) SetBlockCache(c *BlockCache) { r.cache = c }

// BlockCache returns the attached cache, nil when caching is disabled.
func (r *Reader) BlockCache() *BlockCache { return r.cache }

// decodedBlock is one block's columns in memory; unneeded columns stay nil.
// Once returned by decodeBlock a decodedBlock is immutable: instances are
// shared by the block cache across concurrent queries, and materialize
// clones everything it hands to callers.
type decodedBlock struct {
	meta  *blockMeta
	times []int64
	cols  [][]wmap.Load
}

// groupWant converts a cache column group to decodeBlock's column filter:
// allColumns decodes everything, otherwise only the link's two directed
// columns.
func groupWant(group int) func(ci int) bool {
	if group == allColumns {
		return nil
	}
	return func(ci int) bool { return ci == 2*group || ci == 2*group+1 }
}

// block returns block bi of st with the given column group decoded,
// through the cache when one is attached. A fully decoded cached block
// satisfies any group request, so single-link queries ride on blocks a
// cursor already paid to decode. Cache keys use the reader's stable
// cacheID: committed blocks are immutable, so an entry decoded before a
// Refresh stays correct after it.
func (r *Reader) block(st *readerState, bi, group int) (*decodedBlock, error) {
	if r.cache == nil {
		return r.decodeBlock(st, bi, groupWant(group))
	}
	if group != allColumns {
		if v, ok := r.cache.get(cacheKey{arch: r.cacheID, kind: kindRaw, block: bi, group: allColumns}); ok {
			return v.(*decodedBlock), nil
		}
	}
	v, err := r.cache.getOrLoad(cacheKey{arch: r.cacheID, kind: kindRaw, block: bi, group: group}, func() (cacheValue, error) {
		return r.decodeBlock(st, bi, groupWant(group))
	})
	if err != nil {
		return nil, err
	}
	return v.(*decodedBlock), nil
}

// rollup returns rollup block ri of st with the given column group decoded,
// through the cache when one is attached — the same probe-then-load dance
// as block, under kindRollup keys.
func (r *Reader) rollup(st *readerState, ri, group int) (*decodedRollup, error) {
	if r.cache == nil {
		return decodeRollupAt(r.r, st.size, &st.rollups[ri], groupWant(group))
	}
	if group != allColumns {
		if v, ok := r.cache.get(cacheKey{arch: r.cacheID, kind: kindRollup, block: ri, group: allColumns}); ok {
			return v.(*decodedRollup), nil
		}
	}
	v, err := r.cache.getOrLoad(cacheKey{arch: r.cacheID, kind: kindRollup, block: ri, group: group}, func() (cacheValue, error) {
		return decodeRollupAt(r.r, st.size, &st.rollups[ri], groupWant(group))
	})
	if err != nil {
		return nil, err
	}
	return v.(*decodedRollup), nil
}

// decodeBlock reads and decodes one block. want selects load columns by
// column index (nil means all); unselected columns are skipped without
// decoding — the columnar payoff for single-link queries.
func (r *Reader) decodeBlock(st *readerState, bi int, want func(ci int) bool) (*decodedBlock, error) {
	return decodeBlockAt(r.r, st.size, &st.blocks[bi], want)
}

// decodeBlockAt is decodeBlock against any readable source: the writer's
// rollup rebuild replays raw blocks through it without opening a Reader.
func decodeBlockAt(r io.ReaderAt, size int64, meta *blockMeta, want func(ci int) bool) (*decodedBlock, error) {
	frame, err := readAtFull(r, size, meta.offset, frameOverhead+meta.payloadLen)
	if err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(frame[:4]); int(got) != meta.payloadLen {
		return nil, corruptf(meta.offset, "block length prefix %d disagrees with index's %d", got, meta.payloadLen)
	}
	payload := frame[4 : 4+meta.payloadLen]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(frame[4+meta.payloadLen:]) {
		return nil, corruptf(meta.offset, "block checksum mismatch")
	}
	d := &dec{b: payload, off: meta.offset + 4}

	var hdr [5]uint64
	names := [5]string{"map ref", "topology index", "base time", "point count", "link count"}
	for i := range hdr {
		v, err := d.uvarint(names[i])
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if hdr[0] != meta.mapRef || hdr[1] != uint64(meta.topoIndex) || hdr[2] != uint64(meta.baseUnix) ||
		hdr[3] != uint64(meta.points) || hdr[4] != uint64(meta.links) {
		return nil, corruptf(meta.offset+4, "block header disagrees with footer index")
	}
	n, L := meta.points, meta.links

	timeLen, err := d.uvarint("time column length")
	if err != nil {
		return nil, err
	}
	colLens := make([]uint64, 2*L)
	var colSum uint64
	for i := range colLens {
		v, err := d.uvarint("column length")
		if err != nil {
			return nil, err
		}
		colLens[i] = v
		colSum += v
	}
	if timeLen+colSum != uint64(d.remaining()) {
		return nil, corruptf(d.abs(), "column directory claims %d bytes, %d remain", timeLen+colSum, d.remaining())
	}
	if uint64(n-1) > timeLen {
		return nil, corruptf(d.abs(), "%d points cannot fit a %d-byte time column", n, timeLen)
	}

	db := &decodedBlock{meta: meta, times: make([]int64, 0, n), cols: make([][]wmap.Load, 2*L)}
	tb, err := d.bytes(int(timeLen), "time column")
	if err != nil {
		return nil, err
	}
	td := &dec{b: tb, off: d.abs() - int64(len(tb))}
	t := meta.baseUnix
	db.times = append(db.times, t)
	for i := 1; i < n; i++ {
		delta, err := td.uvarint("time delta")
		if err != nil {
			return nil, err
		}
		if delta == 0 || t+int64(delta) > maxUnixSeconds {
			return nil, corruptf(td.abs(), "non-increasing or absurd time delta %d", delta)
		}
		t += int64(delta)
		db.times = append(db.times, t)
	}
	if td.remaining() != 0 {
		return nil, corruptf(td.abs(), "%d trailing bytes in time column", td.remaining())
	}
	if t != meta.lastUnix {
		return nil, corruptf(td.abs(), "block last time %d disagrees with index's %d", t, meta.lastUnix)
	}

	for ci := 0; ci < 2*L; ci++ {
		cb, err := d.bytes(int(colLens[ci]), "load column")
		if err != nil {
			return nil, err
		}
		if want != nil && !want(ci) {
			continue
		}
		if uint64(n) > colLens[ci] {
			return nil, corruptf(d.abs(), "%d points cannot fit a %d-byte load column", n, colLens[ci])
		}
		cd := &dec{b: cb, off: d.abs() - int64(len(cb))}
		col := make([]wmap.Load, 0, n)
		v, err := cd.uvarint("load value")
		if err != nil {
			return nil, err
		}
		load := int64(v)
		if !wmap.Load(load).Valid() {
			return nil, corruptf(cd.abs(), "load %d out of [0, 100]", load)
		}
		col = append(col, wmap.Load(load))
		for i := 1; i < n; i++ {
			delta, err := cd.varint("load delta")
			if err != nil {
				return nil, err
			}
			load += delta
			if !wmap.Load(load).Valid() {
				return nil, corruptf(cd.abs(), "load %d out of [0, 100]", load)
			}
			col = append(col, wmap.Load(load))
		}
		if cd.remaining() != 0 {
			return nil, corruptf(cd.abs(), "%d trailing bytes in load column", cd.remaining())
		}
		db.cols[ci] = col
	}
	return db, nil
}

// materialize rebuilds the full snapshot at point pi of a decoded block.
// The returned map shares no mutable state with the reader.
func materialize(st *readerState, db *decodedBlock, pi int) *wmap.Map {
	m := &wmap.Map{}
	materializeInto(st, db, pi, m)
	return m
}

// materializeInto rebuilds the snapshot at point pi of a decoded block
// into m, reusing m's slice capacity — the zero-allocation steady state
// behind Cursor.MapView. The result shares no mutable state with the
// reader or the (possibly cached, shared) decoded block.
func materializeInto(st *readerState, db *decodedBlock, pi int, m *wmap.Map) {
	topo := st.topos[db.meta.topoIndex]
	m.ID = wmap.MapID(st.strs[db.meta.mapRef])
	m.Time = time.Unix(db.times[pi], 0).UTC()
	m.Nodes = append(m.Nodes[:0], topo.nodes...)
	m.Links = append(m.Links[:0], topo.links...)
	for i := range m.Links {
		m.Links[i].LoadAB = db.cols[2*i][pi]
		m.Links[i].LoadBA = db.cols[2*i+1][pi]
	}
}

// blockRange binary-searches the map's chronological block list for the
// blocks overlapping [fromU, toU] — the O(log n) seek the footer index
// exists for.
func (st *readerState) blockRange(id wmap.MapID, fromU, toU int64) []int {
	bl := st.perMap[id]
	// Blocks are sorted and non-overlapping, so lastUnix is sorted too.
	lo := sort.Search(len(bl), func(i int) bool { return st.blocks[bl[i]].lastUnix >= fromU })
	hi := sort.Search(len(bl), func(i int) bool { return st.blocks[bl[i]].baseUnix > toU })
	if lo >= hi {
		return nil
	}
	return bl[lo:hi]
}

// rangeBounds resolves the optional query window: zero times mean
// unbounded; both ends are inclusive.
func rangeBounds(from, to time.Time) (int64, int64) {
	fromU, toU := int64(math.MinInt64), int64(math.MaxInt64)
	if !from.IsZero() {
		fromU = from.Unix()
	}
	if !to.IsZero() {
		toU = to.Unix()
	}
	return fromU, toU
}

// SnapshotAt materializes the latest snapshot of the map at or before at,
// like TimeSeries.At. It fails with ErrUnknownMap or ErrNoSnapshot.
func (r *Reader) SnapshotAt(id wmap.MapID, at time.Time) (*wmap.Map, error) {
	st := r.st()
	bl := st.perMap[id]
	if len(bl) == 0 {
		return nil, fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	atU := at.Unix()
	i := sort.Search(len(bl), func(k int) bool { return st.blocks[bl[k]].baseUnix > atU }) - 1
	if i < 0 {
		return nil, fmt.Errorf("tsdb: %s at %s: %w", id, at.UTC(), ErrNoSnapshot)
	}
	db, err := r.block(st, bl[i], allColumns)
	if err != nil {
		return nil, err
	}
	pi := sort.Search(len(db.times), func(k int) bool { return db.times[k] > atU }) - 1
	return materialize(st, db, pi), nil
}

// mapHasLink reports whether any topology used by the map's blocks
// contains the link, answered from the state's link directory.
func (st *readerState) mapHasLink(id wmap.MapID, key LinkKey) bool {
	a, ok := st.linkDirectory()[key.ID(id)]
	return ok && a.mapID == id && a.key == key
}

// LinkColumnsContext streams the raw per-block columns of one link in
// chronological order: fn receives the time column and the two directed
// load columns, trimmed to [from, to]. The slices alias shared (possibly
// cached) decoded state — fn must not mutate or retain them. This is the
// hot serving path for raw series: no per-point time.Time or TimeSeries
// materialization between the cache and the encoder. The whole scan runs
// against one pinned state, so a concurrent Refresh never mixes commit
// views mid-series.
func (r *Reader) LinkColumnsContext(ctx context.Context, id wmap.MapID, key LinkKey, from, to time.Time, fn func(times []int64, ab, ba []wmap.Load) error) error {
	st := r.st()
	if len(st.perMap[id]) == 0 {
		return fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	if !st.mapHasLink(id, key) {
		return fmt.Errorf("tsdb: %s link %s: %w", id, key, ErrUnknownLink)
	}
	fromU, toU := rangeBounds(from, to)
	// Resolve each block's column group up front; blocks whose topology
	// lacks the link contribute nothing and never enter the pipeline.
	// Consecutive blocks mostly share a topology, so the column is only
	// re-resolved when the topology changes.
	var ids, groups []int
	prevTi, ci := -1, -1
	for _, bi := range st.blockRange(id, fromU, toU) {
		if ti := st.blocks[bi].topoIndex; ti != prevTi {
			prevTi, ci = ti, st.topos[ti].linkIndex(key)
		}
		if ci >= 0 {
			ids = append(ids, bi)
			groups = append(groups, ci)
		}
	}
	if len(ids) == 0 {
		return ctx.Err()
	}
	pool := r.startReadAhead(ctx, st, ids, func(i int) int { return groups[i] }, defaultReadAheadWorkers())
	defer pool.Stop()
	i := 0
	for pool.Next() {
		db, ci := pool.Value(), groups[i]
		i++
		lo := sort.Search(len(db.times), func(i int) bool { return db.times[i] >= fromU })
		hi := sort.Search(len(db.times), func(i int) bool { return db.times[i] > toU })
		if lo < hi {
			if err := fn(db.times[lo:hi], db.cols[2*ci][lo:hi], db.cols[2*ci+1][lo:hi]); err != nil {
				return err
			}
		}
	}
	return pool.Err()
}

// rangePointCount is an upper bound on the map's snapshots in [from, to]:
// the sum of the index's per-block point counts over the overlapping
// blocks, costing no decode work. Edge blocks may overhang the range, so
// the bound can exceed the exact count by at most two blocks' points —
// what the API's response-size guard needs.
func (r *Reader) rangePointCount(id wmap.MapID, from, to time.Time) int {
	st := r.st()
	fromU, toU := rangeBounds(from, to)
	n := 0
	for _, bi := range st.blockRange(id, fromU, toU) {
		n += st.blocks[bi].points
	}
	return n
}

// topoKeyIndexes returns the per-topology link-key directory, building it
// on first use. The returned slices are immutable shared state.
func (st *readerState) topoKeyIndexes() (keys [][]LinkKey, idx []map[LinkKey]int) {
	st.topoKeyOnce.Do(func() {
		st.topoKeys = make([][]LinkKey, len(st.topos))
		st.topoKeyIdx = make([]map[LinkKey]int, len(st.topos))
		for ti, t := range st.topos {
			ks := linkKeys(t.links)
			m := make(map[LinkKey]int, len(ks))
			for ci, k := range ks {
				m[k] = ci
			}
			st.topoKeys[ti] = ks
			st.topoKeyIdx[ti] = m
		}
	})
	return st.topoKeys, st.topoKeyIdx
}

// ResolveLinkID maps a query-API link id back to its map and key, scanning
// every topology once per committed state and caching the directory. Link
// ids are stable, so ids resolved against an older state keep resolving
// after a Refresh (topologies are only ever added).
func (r *Reader) ResolveLinkID(linkID string) (wmap.MapID, LinkKey, bool) {
	a, ok := r.st().linkDirectory()[linkID]
	return a.mapID, a.key, ok
}

// linkDirectory returns the state's link-id directory, building it on
// first use. The returned map is immutable shared state.
func (st *readerState) linkDirectory() map[string]linkAddr {
	st.linkDirOnce.Do(func() {
		st.linkDir = make(map[string]linkAddr)
		for _, id := range st.mapIDs {
			seen := make(map[int]bool)
			for _, bi := range st.perMap[id] {
				ti := st.blocks[bi].topoIndex
				if seen[ti] {
					continue
				}
				seen[ti] = true
				for _, key := range linkKeys(st.topos[ti].links) {
					st.linkDir[key.ID(id)] = linkAddr{mapID: id, key: key}
				}
			}
		}
	})
	return st.linkDir
}
