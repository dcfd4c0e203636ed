package tsdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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
	topos   []*wmap.Topology
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
	c, err := loadClosed(r, size)
	if err != nil {
		return nil, err
	}
	st, err := buildState(c)
	if err != nil {
		return nil, err
	}
	rd := &Reader{r: r, cacheID: st.fp}
	rd.state.Store(st)
	return rd, nil
}

// loadFileState reads the file's current committed state.
func (r *Reader) loadFileState() (*readerState, error) {
	c, err := loadCommitted(r.f, CheckpointPath(r.path))
	if c == nil && err == nil {
		c, err = loadClosed(r.f, 0) // an empty file is no archive: fail it as too short
	}
	if err != nil {
		return nil, err
	}
	return buildState(c)
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
	if len(ns.strs) < len(cur.strs) || len(ns.topos) < len(cur.topos) ||
		!extends(ns.blocks, cur.blocks) || !extends(ns.rollups, cur.rollups) || !extends(ns.events, cur.events) {
		return false, ErrArchiveReplaced
	}
	r.state.Store(ns)
	return true, nil
}

// extends reports whether next begins with every row of cur.
func extends[T comparable](next, cur []T) bool {
	return len(next) >= len(cur) && slices.Equal(next[:len(cur)], cur)
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

// footerData is the raw parsed content of a footer or checkpoint payload.
type footerData struct {
	strs    []string
	topos   []*wmap.Topology
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
	prev := noTopology
	fd.topos = make([]*wmap.Topology, 0, ntopo)
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

// buildState derives the query-side lookup structures from a committed
// state and validates the cross-block invariants.
func buildState(c *committed) (*readerState, error) {
	fd := c.fd
	st := &readerState{
		size:        c.size,
		strs:        fd.strs,
		topos:       fd.topos,
		blocks:      fd.blocks,
		rollups:     fd.rollups,
		events:      fd.events,
		perMap:      make(map[wmap.MapID][]int),
		evPerMap:    make(map[wmap.MapID][]int),
		rollupTiers: make(map[wmap.MapID][]rollupTier),
		fp:          fingerprintState(c.size, c.payload),
		version:     c.version,
		live:        c.live,
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
func (fd *footerData) parseTopology(d *dec, prev *wmap.Topology) (*wmap.Topology, error) {
	np, err := d.uvarint("node prefix")
	if err != nil {
		return nil, err
	}
	if np > uint64(len(prev.Nodes())) {
		return nil, corruptf(d.abs(), "node prefix %d exceeds previous topology's %d nodes", np, len(prev.Nodes()))
	}
	nn, err := d.count("topology nodes")
	if err != nil {
		return nil, err
	}
	nodes := append(make([]wmap.Node, 0, int(np)+nn), prev.Nodes()[:np]...)
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
		nodes = append(nodes, wmap.Node{Name: fd.strs[ref], Kind: kind})
	}

	lp, err := d.uvarint("link prefix")
	if err != nil {
		return nil, err
	}
	if lp > uint64(len(prev.Links())) {
		return nil, corruptf(d.abs(), "link prefix %d exceeds previous topology's %d links", lp, len(prev.Links()))
	}
	nl, err := d.count("topology links")
	if err != nil {
		return nil, err
	}
	links := append(make([]wmap.Link, 0, int(lp)+nl), prev.Links()[:lp]...)
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
		links = append(links, wmap.Link{
			A: fd.strs[refs[0]], B: fd.strs[refs[1]],
			LabelA: fd.strs[refs[2]], LabelB: fd.strs[refs[3]],
		})
	}
	return wmap.NewTopology(nodes, links), nil
}

func (fd *footerData) parseBlockMeta(d *dec, dataEnd int64) (blockMeta, error) {
	var raw [8]uint64
	if err := d.fields(raw[:]); err != nil {
		return blockMeta{}, err
	}
	f, err := fd.frameRow(d, "block", raw[0], raw[1], raw[2], dataEnd)
	if err != nil {
		return blockMeta{}, err
	}
	if err := fd.topoRow(d, "block", raw[3], raw[7]); err != nil {
		return blockMeta{}, err
	}
	m := blockMeta{frame: f, mapRef: raw[0], topoIndex: int(raw[3]), baseUnix: int64(raw[4]),
		lastUnix: int64(raw[5]), points: int(raw[6]), links: int(raw[7])}
	switch {
	case m.points < 1:
		return m, corruptf(d.abs(), "block with %d points", m.points)
	case raw[4] > maxUnixSeconds || m.lastUnix < m.baseUnix:
		return m, corruptf(d.abs(), "block time range [%d, %d] invalid", m.baseUnix, m.lastUnix)
	}
	return m, nil
}

// topoRow checks an index row's topology index and its link count against
// that topology.
func (fd *footerData) topoRow(d *dec, what string, ti, links uint64) error {
	if ti >= uint64(len(fd.topos)) {
		return corruptf(d.abs(), "%s topology index %d outside table of %d", what, ti, len(fd.topos))
	}
	if n := len(fd.topos[ti].Links()); links != uint64(n) {
		return corruptf(d.abs(), "%s link count %d disagrees with topology's %d", what, links, n)
	}
	return nil
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
// Once returned by decodeBlockAt a decodedBlock is immutable: instances are
// shared by the block cache across concurrent queries, and materialize
// clones everything it hands to callers.
type decodedBlock struct {
	meta  *blockMeta
	times []int64
	cols  [][]wmap.Load
}

// groupWant converts a cache column group to a decoder's column filter:
// allColumns decodes everything, otherwise only the link's two directed
// columns.
func groupWant(group int) func(ci int) bool {
	if group == allColumns {
		return nil
	}
	return func(ci int) bool { return ci == 2*group || ci == 2*group+1 }
}

// cached returns entry i of the given kind with the given column group
// decoded, through the cache when one is attached. A fully decoded cached
// entry satisfies any group request, so single-link queries ride on blocks
// a cursor already paid to decode. Cache keys use the reader's stable
// cacheID: committed frames are immutable, so an entry decoded before a
// Refresh stays correct after it.
func cached[T cacheValue](r *Reader, kind uint8, i, group int, decode func() (T, error)) (T, error) {
	if r.cache == nil {
		return decode()
	}
	if group != allColumns {
		if v, ok := r.cache.get(cacheKey{arch: r.cacheID, kind: kind, block: i, group: allColumns}); ok {
			return v.(T), nil
		}
	}
	v, err := r.cache.getOrLoad(cacheKey{arch: r.cacheID, kind: kind, block: i, group: group}, func() (cacheValue, error) {
		return decode()
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// block returns raw block bi of st with the given column group decoded.
func (r *Reader) block(st *readerState, bi, group int) (*decodedBlock, error) {
	return cached(r, kindRaw, bi, group, func() (*decodedBlock, error) {
		return decodeBlockAt(r.r, st.size, &st.blocks[bi], groupWant(group))
	})
}

// rollup returns rollup block ri of st with the given column group decoded.
func (r *Reader) rollup(st *readerState, ri, group int) (*decodedRollup, error) {
	return cached(r, kindRollup, ri, group, func() (*decodedRollup, error) {
		return decodeRollupAt(r.r, st.size, &st.rollups[ri], groupWant(group))
	})
}

// decodeBlockAt reads and decodes one raw block. want selects load columns
// by column index (nil means all); unselected columns are skipped without
// decoding — the columnar payoff for single-link queries.
func decodeBlockAt(r io.ReaderAt, size int64, meta *blockMeta, want func(ci int) bool) (*decodedBlock, error) {
	d, err := readFrame(r, size, meta.frame, "block")
	if err != nil {
		return nil, err
	}
	if err := d.header("block", meta.mapRef, uint64(meta.topoIndex), uint64(meta.baseUnix),
		uint64(meta.points), uint64(meta.links)); err != nil {
		return nil, err
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

// viewAt sets m to the snapshot at point pi of a decoded block of map id
// whose interned topology is topo. While m.Topo is topo already, only Time
// and the loads are rewritten; otherwise the skeleton is copied into m's
// own slices, so m never shares mutable state with the reader.
func viewAt(m *wmap.Map, id wmap.MapID, topo *wmap.Topology, db *decodedBlock, pi int) {
	if m.Topo != topo {
		m.ID = id
		m.Nodes = append(m.Nodes[:0], topo.Nodes()...)
		m.Links = append(m.Links[:0], topo.Links()...)
		m.Topo = topo
	}
	m.Time = time.Unix(db.times[pi], 0).UTC()
	for i := range m.Links {
		m.Links[i].LoadAB = db.cols[2*i][pi]
		m.Links[i].LoadBA = db.cols[2*i+1][pi]
	}
}

// materialize rebuilds the snapshot at point pi of a decoded block as an
// owned map, without Topo.
func materialize(st *readerState, db *decodedBlock, pi int) *wmap.Map {
	m := &wmap.Map{}
	viewAt(m, wmap.MapID(st.strs[db.meta.mapRef]), st.topos[db.meta.topoIndex], db, pi)
	m.Topo = nil
	return m
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
	m, _, err := r.snapshotTopoAt(id, at)
	return m, err
}

// snapshotTopoAt is SnapshotAt that also returns the snapshot's interned
// topology.
func (r *Reader) snapshotTopoAt(id wmap.MapID, at time.Time) (*wmap.Map, *wmap.Topology, error) {
	st := r.st()
	bl := st.perMap[id]
	if len(bl) == 0 {
		return nil, nil, fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	atU := at.Unix()
	i := sort.Search(len(bl), func(k int) bool { return st.blocks[bl[k]].baseUnix > atU }) - 1
	if i < 0 {
		return nil, nil, fmt.Errorf("tsdb: %s at %s: %w", id, at.UTC(), ErrNoSnapshot)
	}
	db, err := r.block(st, bl[i], allColumns)
	if err != nil {
		return nil, nil, err
	}
	pi := sort.Search(len(db.times), func(k int) bool { return db.times[k] > atU }) - 1
	return materialize(st, db, pi), st.topos[db.meta.topoIndex], nil
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
	_, topoIdx := st.topoKeyIndexes()
	var ids, groups []int
	prevTi, ci := -1, -1
	for _, bi := range st.blockRange(id, fromU, toU) {
		if ti := st.blocks[bi].topoIndex; ti != prevTi {
			var ok bool
			if ci, ok = topoIdx[ti][key]; !ok {
				ci = -1
			}
			prevTi = ti
		}
		if ci >= 0 {
			ids = append(ids, bi)
			groups = append(groups, ci)
		}
	}
	group := func(i int) int { return groups[i] }
	return r.scanBlocks(ctx, st, ids, group, fromU, toU, func(i int, db *decodedBlock, lo, hi int) error {
		ci := groups[i]
		return fn(db.times[lo:hi], db.cols[2*ci][lo:hi], db.cols[2*ci+1][lo:hi])
	})
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
			ks := linkKeys(t.Links())
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
				for _, key := range linkKeys(st.topos[ti].Links()) {
					st.linkDir[key.ID(id)] = linkAddr{mapID: id, key: key}
				}
			}
		}
	})
	return st.linkDir
}
