// Package tsdb implements a columnar time-series archive for extracted
// weather-map data — the storage layer that replaces re-walking ~210k YAML
// snapshot files with cheap time-range queries.
//
// An archive is a single append-only file of blocks. Each block covers a
// contiguous time window of one map under one fixed topology and stores the
// snapshot times plus two delta-encoded varint load columns per link (one
// per direction). Topologies — router names, link labels, endpoints — are
// interned once in a file-level dictionary: strings are written a single
// time, and each distinct topology is stored once in a footer table,
// delta-encoded against its predecessor (topology changes are rare, so most
// entries are a short prefix reference plus the few changed rows). A footer
// index records every block's map, time range, and file offset, enabling
// O(log n) time-range seeks that decode only the blocks (and, for
// single-link queries, only the columns) a query touches.
//
// Corrupted or truncated archives fail with typed errors (*CorruptError),
// never a panic; every section is CRC32-checked.
package tsdb

import (
	"errors"
	"fmt"
	"strconv"

	"ovhweather/internal/wmap"
)

// Sentinel errors. Read-side structural failures are *CorruptError instead.
var (
	// ErrClosed reports a write to a closed Writer.
	ErrClosed = errors.New("tsdb: writer closed")
	// ErrOutOfOrder reports an Append that does not advance a map's clock.
	ErrOutOfOrder = errors.New("tsdb: snapshot out of chronological order")
	// ErrNoSnapshot reports a point query before a map's first snapshot.
	ErrNoSnapshot = errors.New("tsdb: no snapshot at or before requested time")
	// ErrUnknownMap reports a query for a map the archive does not hold.
	ErrUnknownMap = errors.New("tsdb: map not present in archive")
	// ErrUnknownLink reports a link query no topology of the map matches.
	ErrUnknownLink = errors.New("tsdb: link not present in archive")
	// ErrArchiveReplaced reports a Refresh that found the file's committed
	// state is not an extension of the one being served — the archive was
	// rewritten, not appended to, so cached blocks and pinned cursors
	// cannot be trusted and the caller must open a fresh Reader.
	ErrArchiveReplaced = errors.New("tsdb: archive was replaced, not extended")
)

// CorruptError reports a structurally invalid archive: bad magic, failed
// checksum, truncated section, or an impossible field value. The offset is
// the file position of the first byte the reader could not accept.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("tsdb: corrupt archive at offset %d: %s", e.Offset, e.Reason)
}

// corruptf builds a *CorruptError at the given offset.
func corruptf(off int64, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// newTopology interns a snapshot's skeleton as a dictionary entry,
// rejecting node kinds the archive's one-byte encoding cannot represent.
// Blocks reference topologies by table index; equal topologies share one
// entry, and its link order is the column order of its blocks.
func newTopology(m *wmap.Map) (*wmap.Topology, error) {
	for _, n := range m.Nodes {
		if n.Kind != wmap.Router && n.Kind != wmap.Peering {
			return nil, fmt.Errorf("tsdb: node %q has unsupported kind %q", n.Name, n.Kind)
		}
	}
	return m.Topology(), nil
}

// noTopology is the empty predecessor of an archive's first topology.
var noTopology = wmap.NewTopology(nil, nil)

// LinkKey identifies one link within a map across snapshots: the endpoint
// pair, the per-direction labels, and — because parallel links may repeat
// labels — the ordinal among links sharing all four strings, counted in
// topology order.
type LinkKey struct {
	A, B           string
	LabelA, LabelB string
	Ordinal        int
}

func (k LinkKey) String() string {
	return fmt.Sprintf("%s(%s)-%s(%s)#%d", k.A, k.LabelA, k.B, k.LabelB, k.Ordinal)
}

// ID derives the stable identifier the query API exposes for the link on
// the given map: a 64-bit FNV-1a over the map id, the key strings, and the
// ordinal, rendered as hex.
func (k LinkKey) ID(id wmap.MapID) string {
	return strconv.FormatUint(k.hash(id), 16)
}

// appendID appends the link's ID to b without allocating.
func (k LinkKey) appendID(b []byte, id wmap.MapID) []byte {
	return strconv.AppendUint(b, k.hash(id), 16)
}

// hash is the FNV-1a 64 the link ID renders: each string followed by a
// zero byte, then the ordinal's eight little-endian bytes.
func (k LinkKey) hash(id wmap.MapID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, s := range [5]string{string(id), k.A, k.B, k.LabelA, k.LabelB} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h *= prime64 // the separator: h ^ 0 == h
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(k.Ordinal>>(8*i)))) * prime64
	}
	return h
}

// LinkKeysOf returns the key of every link of the snapshot, in link order,
// with ordinals assigned among identical (A, B, LabelA, LabelB) tuples.
func LinkKeysOf(m *wmap.Map) []LinkKey {
	return linkKeys(m.Links)
}

// linkKeys counts each (A, B, LabelA, LabelB) tuple as it goes, so a
// link's ordinal is the number of earlier links with the same tuple.
func linkKeys(links []wmap.Link) []LinkKey {
	out := make([]LinkKey, len(links))
	seen := make(map[LinkKey]int, len(links))
	for i, l := range links {
		k := LinkKey{A: l.A, B: l.B, LabelA: l.LabelA, LabelB: l.LabelB}
		n := seen[k] // keyed by the tuple: Ordinal is still zero here
		seen[k] = n + 1
		k.Ordinal = n
		out[i] = k
	}
	return out
}
