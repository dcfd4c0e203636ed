package tsdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovhweather/internal/events"
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

// readerState is one committed view of the archive: a commitView — what a
// footer or checkpoint holds — plus the live head points and events read
// past it. Instances are immutable once published (the lazily built link
// directory is guarded by its own sync.Once) and shared freely between
// goroutines. Head blocks follow the sealed blocks in block-index order:
// block bi < len(blocks) is sealed, block len(blocks)+k is heads[k], so
// cursor, planner and grid serve both through one code path.
type readerState struct {
	*commitView
	bytes  int64        // data file plus head: what the archive occupies
	mapIDs []wmap.MapID // maps with sealed or head points, sorted

	heads   []*headBlock                // one per map with live head points, by map id
	headOf  map[wmap.MapID]int          // index into heads
	headEvs map[wmap.MapID][]headEvents // live head event entries, head order
	hgen    uint64                      // head generation read; 0: no head
	hoff    int64                       // head bytes consumed: every whole frame read
	hver    uint64                      // newest head frame version read

	fp      uint64 // fingerprint: the commit's, rolled with the head read
	version uint64 // newest of the checkpoint's and the head frames' versions

	// evLog is the reader's event sequence in adoption order (see
	// adoptEvents, EventFrames); evAdopted counts each map's events in it.
	evLog     []evSeg
	evAdopted map[wmap.MapID]int

	linkDirOnce sync.Once
	linkDir     map[string]linkAddr
}

// commitView is what one footer or checkpoint holds: its rows and their
// per-map index, with the lookup structures derived from them. States whose
// refresh found the checkpoint unchanged share it.
type commitView struct {
	commitIndex
	c        *committed // the commit state it was parsed from
	size     int64      // readable byte bound: file size (closed) or dataEnd (live)
	topos    []*wmap.Topology
	cfp      uint64 // FNV-1a over size and footer/checkpoint payload
	cversion uint64 // checkpoint commit version; 0 when parsed from a footer
	live     bool   // state came from a checkpoint (archive may still grow)

	keyDir *topoKeyDir // shared by views over the same topology table
}

// topoKeyDir is the per-topology link-key directory the grid engine plans
// with: keys in column order and the inverse map, built once per topology
// table on first grid query (the same lazy discipline as linkDir). A scan
// resolves each link's column once per topology in range, so planning L
// links costs O(L·T) map probes for T topologies instead of O(L·B·links)
// string comparisons over B blocks.
type topoKeyDir struct {
	once sync.Once
	keys [][]LinkKey
	idx  []map[LinkKey]int
}

// headBlock is one map's live head points as an in-memory block: a prefix
// view of the map's append-only head slab, one byte per load, decoded to a
// decodedBlock only when a query asks.
type headBlock struct {
	meta blockMeta
	ob   openBlock
	once sync.Once
	db   *decodedBlock
}

// decoded returns the head block's points as a decodedBlock, decoding them
// on first use.
func (hb *headBlock) decoded() *decodedBlock {
	hb.once.Do(func() {
		_, hb.db = hb.ob.decoded(hb.meta.mapRef)
		hb.db.meta = &hb.meta
	})
	return hb.db
}

// evSeg is one frame of a reader's event sequence: events [skip, skip+n)
// of sealed event frame ei, or, when ei < 0, of a head event entry's evs.
type evSeg struct {
	ei   int
	head []events.Event
	skip int
	n    int
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
	st, err := rd.loadFileState(nil)
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
	cv, err := buildCommitView(c, nil)
	if err != nil {
		return nil, err
	}
	st, err := newState(cv, nil, 0, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	rd := &Reader{r: r, cacheID: st.fp}
	rd.state.Store(st)
	return rd, nil
}

// loadFileState reads the file's current committed state: the head
// first, then the commit, so every live head point is in the head bytes
// read or sealed in the commit read after them. Given the state a Refresh
// starts from, it reads only the head frames past prev's offset and parses
// the checkpoint payload only when its header changed.
func (r *Reader) loadFileState(prev *readerState) (*readerState, error) {
	var hgen uint64
	var hoff int64
	var prevC *committed
	if prev != nil {
		hgen, hoff, prevC = prev.hgen, prev.hoff, prev.c
	}
	gen, buf, start, hsize, err := readHeadFile(headPath(r.path), hgen, hoff)
	if err != nil {
		return nil, err
	}
	c, err := loadCommitted(r.f, CheckpointPath(r.path), prevC)
	if c == nil && err == nil {
		c, err = loadClosed(r.f, 0) // an empty file is no archive: fail it as too short
	}
	if err != nil {
		return nil, err
	}
	var cv, prevCV *commitView
	if prev != nil {
		prevCV = prev.commitView
	}
	if prev != nil && c == prev.c {
		if !c.live {
			return prev, nil // a closed archive only changes by being replaced
		}
		cv = prevCV
	} else if cv, err = buildCommitView(c, prevCV); err != nil {
		return nil, err
	} else if prev != nil && !c.fd.extended && !cv.extends(prevCV) {
		return nil, ErrArchiveReplaced
	}
	if !cv.live {
		gen, buf, hsize = 0, nil, 0 // a head beside a closed archive adds nothing
	}
	return newState(cv, prev, gen, buf, start, hsize)
}

// Refresh re-reads the archive's durable commit state and, when it has
// advanced, atomically adopts it: subsequent queries see the added blocks
// and head points, the fingerprint (and every ETag derived from it) rolls
// forward, and cursors or scans already running keep their opened snapshot
// untouched. It reports whether anything changed. A Refresh reads only the
// head frames past the previous one and the checkpoint's fixed header. A
// changed checkpoint is read whole, but only the table rows past the
// current state's are parsed: strings, topologies (with the direction
// indexes built on them) and index rows carry over, and the per-map
// index is extended rather than rebuilt. A closed archive whose size and
// 20-byte tail are unchanged keeps the current state without a footer read.
//
// Refresh verifies the new state is a strict extension of the current one
// — same blocks, same offsets, only appended entries, no map's newest
// point moving back — and refuses with ErrArchiveReplaced otherwise,
// because a rewritten file would silently invalidate decoded-block cache
// entries and pinned cursors. Replacing an archive wholesale requires a
// fresh Reader.
func (r *Reader) Refresh() (changed bool, err error) {
	if r.f == nil {
		return false, errors.New("tsdb: reader was not opened from a file; Refresh unavailable")
	}
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	cur := r.st()
	ns, err := r.loadFileState(cur)
	if err != nil {
		return false, err
	}
	if ns.fp == cur.fp {
		return false, nil
	}
	for _, id := range cur.mapIDs {
		_, was, _ := cur.bounds(id)
		if _, now, ok := ns.bounds(id); !ok || now.Before(was) {
			return false, ErrArchiveReplaced
		}
	}
	r.state.Store(ns)
	return true, nil
}

// extends reports whether cv is cur grown by appends only.
func (cv *commitView) extends(cur *commitView) bool {
	return len(cv.strs) >= len(cur.strs) && len(cv.topos) >= len(cur.topos) &&
		extends(cv.blocks, cur.blocks) && extends(cv.rollups, cur.rollups) && extends(cv.events, cur.events)
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
// to corruption. It reads into buf when that has room for n bytes and into
// a new buffer otherwise.
func readAtFull(r io.ReaderAt, size, off int64, n int, buf []byte) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > size {
		return nil, corruptf(off, "read of %d bytes beyond archive size %d", n, size)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
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

	// rows holds each table's encoded rows — strings, topologies, blocks,
	// rollups, events — as the payload bytes they were parsed from, and
	// dataEnd the bound the frames were checked against. A parse given
	// the previous footerData skips every table whose rows begin with the
	// previous rows, byte for byte; extended reports that all five did.
	rows     [5][]byte
	dataEnd  int64
	extended bool
}

// reuseRows parses a table of n rows at d, reusing prev's values when the
// table's bytes begin with prev's rows (prevRows): those are skipped, and
// parse, given the values so far, decodes only the rows past them. The
// returned values extend prev's slice in place when it has room — a
// reader's states derive one from the next, and each sees only its own
// length — and rows are the table's bytes.
func reuseRows[T any](d *dec, n int, prevRows []byte, prev []T, parse func(vals []T) (T, error)) (vals []T, rows []byte, reused bool, err error) {
	start := d.pos
	if len(prev) <= n && len(prevRows) <= d.remaining() && bytes.Equal(d.b[d.pos:d.pos+len(prevRows)], prevRows) {
		d.pos += len(prevRows)
		vals, reused = prev, true
	}
	if vals == nil {
		vals = make([]T, 0, n)
	}
	for len(vals) < n {
		v, err := parse(vals)
		if err != nil {
			return nil, nil, false, err
		}
		vals = append(vals, v)
	}
	return vals, d.b[start:d.pos], reused, nil
}

// parseFooter decodes a footer payload: the string table, the
// prefix-delta topology dictionary, the block index and the versioned
// rollup and event indexes. payloadOff is the file offset of the payload's
// first byte (for error positions); dataEnd bounds every frame. Given the
// rows a refreshing reader parsed last time (prev nil: none), it skips
// them: every table of a growing archive's checkpoint begins with the
// previous checkpoint's rows, so only the appended rows are decoded, and
// prev's string values and *wmap.Topology entries — with the direction
// indexes built on them — carry over.
func parseFooter(payload []byte, payloadOff, dataEnd int64, prev *footerData) (*footerData, error) {
	extending := prev != nil && dataEnd >= prev.dataEnd
	if !extending {
		prev = &footerData{}
	}
	d := &dec{b: payload, off: payloadOff}
	fd := &footerData{dataEnd: dataEnd}
	var same [5]bool
	nstr, err := d.count("string table")
	if err != nil {
		return nil, err
	}
	fd.strs, fd.rows[0], same[0], err = reuseRows(d, nstr, prev.rows[0], prev.strs, func([]string) (string, error) {
		slen, err := d.uvarint("string length")
		if err != nil {
			return "", err
		}
		if slen > uint64(d.remaining()) {
			return "", corruptf(d.abs(), "string of %d bytes exceeds %d remaining", slen, d.remaining())
		}
		b, err := d.bytes(int(slen), "string")
		return string(b), err
	})
	if err != nil {
		return nil, err
	}

	ntopo, err := d.count("topology table")
	if err != nil {
		return nil, err
	}
	fd.topos, fd.rows[1], same[1], err = reuseRows(d, ntopo, prev.rows[1], prev.topos, func(topos []*wmap.Topology) (*wmap.Topology, error) {
		base := noTopology // each entry is a delta against the one before
		if len(topos) > 0 {
			base = topos[len(topos)-1]
		}
		return fd.parseTopology(d, base)
	})
	if err != nil {
		return nil, err
	}

	nblk, err := d.count("block index")
	if err != nil {
		return nil, err
	}
	fd.blocks, fd.rows[2], same[2], err = reuseRows(d, nblk, prev.rows[2], prev.blocks, func([]blockMeta) (blockMeta, error) {
		return fd.parseBlockMeta(d, dataEnd)
	})
	if err != nil {
		return nil, err
	}

	// A payload that ends here is the v1 (PR 3–6) format: no rollup index,
	// queries plan against raw blocks only. Otherwise a versioned suffix
	// carries the rollup index (v2) and, since v3, the event-frame index.
	same[3], same[4] = prev.rows[3] == nil, prev.rows[4] == nil
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
		fd.rollups, fd.rows[3], same[3], err = reuseRows(d, nroll, prev.rows[3], prev.rollups, func([]rollupMeta) (rollupMeta, error) {
			return fd.parseRollupMeta(d, dataEnd)
		})
		if err != nil {
			return nil, err
		}
		if ver >= footerVersionEvents {
			nev, err := d.count("event index")
			if err != nil {
				return nil, err
			}
			fd.events, fd.rows[4], same[4], err = reuseRows(d, nev, prev.rows[4], prev.events, func([]eventMeta) (eventMeta, error) {
				return fd.parseEventMeta(d, dataEnd)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if d.remaining() != 0 {
		return nil, corruptf(d.abs(), "%d trailing bytes after footer", d.remaining())
	}
	fd.extended = extending && same == [5]bool{true, true, true, true, true}
	return fd, nil
}

// buildCommitView derives the view of commit c. Given the view a refresh
// starts from, and a commit whose tables extend it row for row, it extends
// a clone of prev's index by the appended rows alone; otherwise it extends
// an empty index by every row.
func buildCommitView(c *committed, prev *commitView) (*commitView, error) {
	cv := &commitView{c: c, size: c.size, topos: c.fd.topos, cfp: c.fingerprint(),
		cversion: c.version, live: c.live, keyDir: &topoKeyDir{}}
	if prev != nil && c.fd.extended {
		cv.commitIndex = prev.clone()
		if len(cv.topos) == len(prev.topos) {
			cv.keyDir = prev.keyDir // the same table: built or not, the directory carries over
		}
	}
	if err := cv.extend(c.fd); err != nil {
		return nil, err
	}
	return cv, nil
}

// fingerprint is the commit's fingerprintState.
func (c *committed) fingerprint() uint64 {
	if c.live {
		return fingerprintState(c.size, c.hdr[:])
	}
	return fingerprintState(c.size, c.payload)
}

// newState combines a commit view with the head bytes buf, read from file
// offset start of head generation gen (0: no head) whose file is hsize
// bytes long. When prev is the state a Refresh starts from and buf
// continues prev's head read, prev's live head points and events carry
// over and only the frames in buf are decoded; otherwise buf holds the
// whole head. Head points and events the commit now covers are dropped.
func newState(cv *commitView, prev *readerState, gen uint64, buf []byte, start, hsize int64) (*readerState, error) {
	st := &readerState{commitView: cv, bytes: cv.size + hsize, hgen: gen}
	obs := make(map[wmap.MapID]*openBlock)
	refs := make(map[wmap.MapID]uint64)
	evs := make(map[wmap.MapID][]headEvents)
	kept := make(map[wmap.MapID]*headBlock) // carried over untouched
	if prev != nil && gen != 0 && gen == prev.hgen && start == prev.hoff {
		st.hver = prev.hver
		for _, hb := range prev.heads {
			id := wmap.MapID(prev.strs[hb.meta.mapRef])
			k, err := cv.lives.get(id).liveFrom(&headRaw{times: hb.ob.times}, nil, id)
			switch {
			case err != nil:
				return nil, err
			case k == 0:
				kept[id] = hb
			case k < len(hb.ob.times):
				ob := &openBlock{topoIndex: hb.ob.topoIndex, ncols: hb.ob.ncols}
				addColumns(ob, hb.ob.times[k:], hb.ob.loads[k:], hb.ob.stride)
				obs[id], refs[id] = ob, hb.meta.mapRef
			}
		}
		for id, es := range prev.headEvs {
			front := cv.lives.get(id).evFront
			for _, e := range es {
				if e.lastPoint > front {
					evs[id] = append(evs[id], e)
				}
			}
		}
	}
	n, err := scanHead(buf, start, cv.strs, cv.topos, func(hf *headFrame) error {
		st.hver = max(st.hver, hf.version)
		for i := range hf.raw {
			e := &hf.raw[i]
			id := wmap.MapID(cv.strs[e.mapRef])
			ob := obs[id]
			hb := kept[id]
			if ob == nil && hb != nil {
				ob = &hb.ob
			}
			k, err := cv.lives.get(id).liveFrom(e, ob, id)
			if err != nil {
				return err
			}
			if k == len(e.times) {
				continue
			}
			if hb != nil {
				// Append past the kept view's prefix, in a copy of the
				// view: states holding it never look there.
				cp := hb.ob
				ob = &cp
				delete(kept, id)
			}
			if ob == nil {
				ob = &openBlock{topoIndex: e.topoIndex, ncols: 2 * len(cv.topos[e.topoIndex].Links())}
			}
			addColumns(ob, e.times[k:], e.loads[k:], len(e.times))
			obs[id], refs[id] = ob, e.mapRef
		}
		for _, e := range hf.evs {
			id := wmap.MapID(cv.strs[e.mapRef])
			if e.lastPoint > cv.lives.get(id).evFront {
				evs[id] = append(evs[id], e)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if gen != 0 {
		st.hoff = start + int64(n)
	}
	for _, hb := range kept {
		st.heads = append(st.heads, hb)
	}
	for id, ob := range obs {
		n := len(ob.times)
		st.heads = append(st.heads, &headBlock{
			meta: blockMeta{mapRef: refs[id], topoIndex: ob.topoIndex,
				baseUnix: ob.times[0], lastUnix: ob.times[n-1], points: n, links: ob.ncols / 2},
			ob: *ob,
		})
	}
	sort.Slice(st.heads, func(a, b int) bool {
		return cv.strs[st.heads[a].meta.mapRef] < cv.strs[st.heads[b].meta.mapRef]
	})
	st.mapIDs = cv.sealed
	if len(st.heads) > 0 {
		st.headOf = make(map[wmap.MapID]int, len(st.heads))
		extra := false
		for k, hb := range st.heads {
			id := wmap.MapID(cv.strs[hb.meta.mapRef])
			st.headOf[id] = k
			extra = extra || len(cv.perMap[id]) == 0
		}
		if extra {
			st.mapIDs = slices.Clone(cv.sealed)
			for id := range st.headOf {
				if len(cv.perMap[id]) == 0 {
					st.mapIDs = append(st.mapIDs, id)
				}
			}
			slices.Sort(st.mapIDs)
		}
	}
	if len(evs) > 0 {
		st.headEvs = evs
	}
	st.fp, st.version = cv.cfp, max(cv.cversion, st.hver)
	if gen != 0 {
		h := fnv.New64a()
		var b [24]byte
		binary.LittleEndian.PutUint64(b[:], cv.cfp)
		binary.LittleEndian.PutUint64(b[8:], gen)
		binary.LittleEndian.PutUint64(b[16:], uint64(st.hoff))
		h.Write(b[:])
		st.fp = h.Sum64()
	}
	st.adoptEvents(prev)
	return st, nil
}

// adoptEvents extends prev's event sequence (a fresh one when prev is nil)
// with the events this state adds, each exactly once. A map's events carry
// ordinals in emission order: its event frames hold ordinals [0, evCount)
// in commit order, and its live head entries the ones after. Head entries
// surface their events at the first refresh that reads them; the event
// frame that later seals them only adds what the head never held.
func (st *readerState) adoptEvents(prev *readerState) {
	adopted := make(map[wmap.MapID]int)
	first := 0
	if prev != nil && len(prev.events) <= len(st.events) {
		st.evLog = prev.evLog
		for id, n := range prev.evAdopted {
			adopted[id] = n
		}
		first = len(prev.events)
	}
	adopt := func(ei int, head []events.Event, id wmap.MapID, ord, n int) {
		skip := max(adopted[id]-ord, 0)
		if skip >= n {
			return
		}
		st.evLog = append(st.evLog, evSeg{ei: ei, head: head, skip: skip, n: n - skip})
		adopted[id] = ord + n
	}
	ords := make(map[wmap.MapID]int)
	if first > 0 {
		for id, n := range prev.evCount {
			ords[id] = n
		}
	}
	for ei := first; ei < len(st.events); ei++ {
		m := &st.events[ei]
		id := wmap.MapID(st.strs[m.mapRef])
		adopt(ei, nil, id, ords[id], m.count)
		ords[id] += m.count
	}
	for _, id := range sortedIDs(st.headEvs) {
		ord := st.evCount[id]
		for _, e := range st.headEvs[id] {
			adopt(-1, e.evs, id, ord, len(e.evs))
			ord += len(e.evs)
		}
	}
	st.evAdopted = adopted
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
	var first, last *blockMeta
	if bl := st.perMap[id]; len(bl) > 0 {
		first, last = &st.blocks[bl[0]], &st.blocks[bl[len(bl)-1]]
	}
	if hb := st.head(id); hb != nil {
		last = &hb.meta
		if first == nil {
			first = last
		}
	}
	if first == nil {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(first.baseUnix, 0).UTC(), time.Unix(last.lastUnix, 0).UTC(), true
}

// head returns the map's live head block, nil when it has none.
func (st *readerState) head(id wmap.MapID) *headBlock {
	if k, ok := st.headOf[id]; ok {
		return st.heads[k]
	}
	return nil
}

// hasMap reports whether the state holds any snapshot of the map.
func (st *readerState) hasMap(id wmap.MapID) bool {
	return len(st.perMap[id]) > 0 || st.head(id) != nil
}

// meta returns block bi's index row: a sealed block's, or past them a head
// block's.
func (st *readerState) meta(bi int) *blockMeta {
	if bi < len(st.blocks) {
		return &st.blocks[bi]
	}
	return &st.heads[bi-len(st.blocks)].meta
}

// snapshots returns the map's snapshot count, sealed and head.
func (st *readerState) snapshots(id wmap.MapID) int {
	n := st.snaps[id]
	if hb := st.head(id); hb != nil {
		n += hb.meta.points
	}
	return n
}

// Snapshots returns a map's archived snapshot count.
func (r *Reader) Snapshots(id wmap.MapID) int { return r.st().snapshots(id) }

// Stats summarizes the archive's current committed state. Blocks counts
// sealed raw blocks; Snapshots counts head points too, and Bytes is the
// data file plus the head sidecar.
func (r *Reader) Stats() ArchiveStats {
	st := r.st()
	s := ArchiveStats{
		Blocks:       len(st.blocks),
		RollupBlocks: len(st.rollups),
		EventBlocks:  len(st.events),
		Topologies:   len(st.topos),
		Strings:      len(st.strs),
		Bytes:        st.bytes,
	}
	for _, id := range st.mapIDs {
		s.Snapshots += st.snapshots(id)
	}
	return s
}

// Fingerprint identifies the archive's exact committed contents: an FNV-1a
// hash of the committed size and footer/checkpoint payload (which in turn
// checksum every block), rolled with the head generation and length read
// on a live archive. It keys the API's ETags and rolls forward on every
// Refresh that adopts new data.
func (r *Reader) Fingerprint() uint64 { return r.st().fp }

// Version is the commit version of the state being served: the live
// writer's monotonic counter as of its newest checkpoint or head frame, or
// 0 for a closed archive's footer.
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

// groupWant converts a cache column group to the rollup decoder's column
// filter: allColumns decodes everything, otherwise only the link's two
// directed columns.
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

// block returns raw block bi of st with the given column group decoded. A
// head block decodes in full, once per state, and never enters the cache:
// its index names a sealed block in later states.
func (r *Reader) block(st *readerState, bi, group int) (*decodedBlock, error) {
	if bi >= len(st.blocks) {
		return st.heads[bi-len(st.blocks)].decoded(), nil
	}
	return cached(r, kindRaw, bi, group, func() (*decodedBlock, error) {
		return decodeBlockAt(r.r, st.size, &st.blocks[bi], group)
	})
}

// rollup returns rollup block ri of st with the given column group decoded.
func (r *Reader) rollup(st *readerState, ri, group int) (*decodedRollup, error) {
	return cached(r, kindRollup, ri, group, func() (*decodedRollup, error) {
		return decodeRollupAt(r.r, st.size, &st.rollups[ri], groupWant(group))
	})
}

// decodeBlockAt reads and decodes one raw block with the given cache
// column group: allColumns decodes every load column, a link index only
// that link's two. Other columns are skipped without decoding — the
// columnar payoff for single-link queries. Every wanted column is carved
// from one slab, so a block costs the same few allocations whatever its
// link count, and a column whose bytes are as many as its points takes
// decodeOneByteLoads' fast path.
func decodeBlockAt(r io.ReaderAt, size int64, meta *blockMeta, group int) (*decodedBlock, error) {
	d, buf, err := readFrame(r, size, meta.frame, "block")
	defer putFrame(buf)
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
	// The column directory is read twice: here to check its lengths sum
	// to the bytes left, then again from dir by the carve loop, so no
	// per-column length array is allocated.
	dir := d
	var colSum uint64
	for i := 0; i < 2*L; i++ {
		v, err := d.uvarint("column length")
		if err != nil {
			return nil, err
		}
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

	// A column is carved only after its n-point length check passes, so
	// the columns carved never outgrow the bytes left: bounding the slab
	// by them keeps a corrupt directory from sizing a huge allocation
	// while a valid block gets exactly wanted×n loads.
	wanted := 2 * L
	if group != allColumns {
		wanted = 2
	}
	slab := make([]wmap.Load, min(wanted*n, d.remaining()))
	for ci := 0; ci < 2*L; ci++ {
		// dir's lengths were all read without error above; most fit one
		// byte, which skips the varint loop.
		colLen := uint64(dir.b[dir.pos])
		if colLen < 0x80 {
			dir.pos++
		} else {
			colLen, _ = dir.uvarint("column length")
		}
		cb, err := d.bytes(int(colLen), "load column")
		if err != nil {
			return nil, err
		}
		if group != allColumns && ci>>1 != group {
			continue
		}
		if uint64(n) > colLen {
			return nil, corruptf(d.abs(), "%d points cannot fit a %d-byte load column", n, colLen)
		}
		col := slab[:n:n]
		slab = slab[n:]
		if len(cb) != n || !decodeOneByteLoads(col, cb) {
			if err := decodeLoads(col, &dec{b: cb, off: d.abs() - int64(len(cb))}); err != nil {
				return nil, err
			}
		}
		db.cols[ci] = col
	}
	return db, nil
}

// decodeOneByteLoads fills col from a load column of len(col) bytes, so one
// byte per value: the first load, then zigzag deltas. It reports false at
// the first byte that is not a whole varint or that steps outside
// [0, 100], with col partly written; decodeLoads then decodes the column
// again and reports that byte's error.
//
//wm:hotpath
func decodeOneByteLoads(col []wmap.Load, b []byte) bool {
	if len(b) == 0 || len(b) != len(col) || b[0] > 100 {
		return false
	}
	load := int64(b[0])
	col[0] = wmap.Load(load)
	for i := 1; i < len(b); i++ {
		c := b[i]
		if c >= 0x80 {
			return false
		}
		load += int64(c>>1) ^ -int64(c&1)
		if load < 0 || load > 100 {
			return false
		}
		col[i] = wmap.Load(load)
	}
	return true
}

// decodeLoads fills col from the load column in cd: a uvarint first load,
// then zigzag varint deltas, with no byte left over. Each load is
// range-checked as an integer before it becomes a wmap.Load.
func decodeLoads(col []wmap.Load, cd *dec) error {
	v, err := cd.uvarint("load value")
	if err != nil {
		return err
	}
	load := int64(v)
	if load < 0 || load > 100 {
		return corruptf(cd.abs(), "load %d out of [0, 100]", load)
	}
	col[0] = wmap.Load(load)
	for i := 1; i < len(col); i++ {
		delta, err := cd.varint("load delta")
		if err != nil {
			return err
		}
		load += delta
		if load < 0 || load > 100 {
			return corruptf(cd.abs(), "load %d out of [0, 100]", load)
		}
		col[i] = wmap.Load(load)
	}
	if cd.remaining() != 0 {
		return corruptf(cd.abs(), "%d trailing bytes in load column", cd.remaining())
	}
	return nil
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
// exists for — and adds the map's head block, the newest, when it
// overlaps too.
func (st *readerState) blockRange(id wmap.MapID, fromU, toU int64) []int {
	bl := st.perMap[id]
	// Blocks are sorted and non-overlapping, so lastUnix is sorted too.
	lo := sort.Search(len(bl), func(i int) bool { return st.blocks[bl[i]].lastUnix >= fromU })
	hi := sort.Search(len(bl), func(i int) bool { return st.blocks[bl[i]].baseUnix > toU })
	var ids []int
	if lo < hi {
		ids = bl[lo:hi:hi]
	}
	if k, ok := st.headOf[id]; ok {
		if m := &st.heads[k].meta; m.lastUnix >= fromU && m.baseUnix <= toU {
			ids = append(ids, len(st.blocks)+k)
		}
	}
	return ids
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
	if !st.hasMap(id) {
		return nil, nil, fmt.Errorf("tsdb: map %q: %w", id, ErrUnknownMap)
	}
	atU := at.Unix()
	bl := st.blockRange(id, math.MinInt64, atU)
	if len(bl) == 0 {
		return nil, nil, fmt.Errorf("tsdb: %s at %s: %w", id, at.UTC(), ErrNoSnapshot)
	}
	db, err := r.block(st, bl[len(bl)-1], allColumns)
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
	if !st.hasMap(id) {
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
		if ti := st.meta(bi).topoIndex; ti != prevTi {
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
		n += st.meta(bi).points
	}
	return n
}

// topoKeyIndexes returns the per-topology link-key directory, building it
// on first use. The returned slices are immutable shared state.
func (cv *commitView) topoKeyIndexes() (keys [][]LinkKey, idx []map[LinkKey]int) {
	kd := cv.keyDir
	kd.once.Do(func() {
		kd.keys = make([][]LinkKey, len(cv.topos))
		kd.idx = make([]map[LinkKey]int, len(cv.topos))
		for ti, t := range cv.topos {
			ks := linkKeys(t.Links())
			m := make(map[LinkKey]int, len(ks))
			for ci, k := range ks {
				m[k] = ci
			}
			kd.keys[ti] = ks
			kd.idx[ti] = m
		}
	})
	return kd.keys, kd.idx
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
			for _, bi := range st.blockRange(id, math.MinInt64, math.MaxInt64) {
				ti := st.meta(bi).topoIndex
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
