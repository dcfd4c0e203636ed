package tsdb

import (
	"cmp"
	"maps"
	"slices"

	"ovhweather/internal/wmap"
)

// commitIndex is the per-map index of a commit's rows: the one derivation
// that a Reader's open and Refresh and a Writer's resume share. extend
// indexes the rows of a commit whose tables begin with the rows the index
// holds, so an open extends an empty index by every row and a refresh
// extends a clone of its state's index by the appended rows alone.
//
// An appended row normally lands at the end of its per-map list. One that
// does not — a block not after its map's newest, an event frame before its
// map's last, a rollup block sorting before its tier's last, or a tier
// finer than one the map already has — marks its list; after the pass each
// marked list is sorted and, for blocks, fully checked for overlap in time.
type commitIndex struct {
	strs    []string
	blocks  []blockMeta
	rollups []rollupMeta
	events  []eventMeta

	perMap  map[wmap.MapID][]int // sealed block indexes, chronological
	snaps   map[wmap.MapID]int   // sealed snapshots per map
	evCount map[wmap.MapID]int   // events per map in event frames
	lives   headLives            // which head entries the commit leaves live
	sealed  []wmap.MapID         // maps with sealed blocks, sorted
	// evPerMap lists each map's event-frame indexes in commit (offset) order.
	evPerMap map[wmap.MapID][]int
	// rollupTiers groups each map's rollup blocks by resolution, ascending;
	// within a tier entries are chronological by first bucket. The planner
	// walks tiers coarsest-first.
	rollupTiers map[wmap.MapID][]rollupTier
}

// rollupTier is one map's rollup blocks at one resolution.
type rollupTier struct {
	res     int64
	entries []int // rollup indexes, sorted by (firstBucket, offset)
	maxLast int64 // newest raw point any entry of the tier aggregates
}

// tierOf returns the tier of resolution res, nil when there is none.
func tierOf(tiers []rollupTier, res int64) *rollupTier {
	if k := slices.IndexFunc(tiers, func(t rollupTier) bool { return t.res == res }); k >= 0 {
		return &tiers[k]
	}
	return nil
}

// The per-map lists a row out of order marks for sorting.
const (
	unsortedBlocks = 1 << iota
	unsortedEvents
	unsortedRollups
)

// clone returns a copy of ix that extend may grow without changing what ix
// shows: the maps are copied, lists grow only past the lengths ix sees, and
// a list that must be sorted or a tier list that changes is copied first.
func (ix *commitIndex) clone() commitIndex {
	c := *ix
	c.perMap, c.snaps, c.evCount = maps.Clone(ix.perMap), maps.Clone(ix.snaps), maps.Clone(ix.evCount)
	c.lives, c.evPerMap, c.rollupTiers = maps.Clone(ix.lives), maps.Clone(ix.evPerMap), maps.Clone(ix.rollupTiers)
	return c
}

// extend indexes the rows of fd past the ones ix holds; fd's tables must
// begin with ix's rows. The zero commitIndex is empty. Overlapping blocks
// of one map fail with a *CorruptError.
func (ix *commitIndex) extend(fd *footerData) error {
	if ix.perMap == nil {
		ix.perMap, ix.snaps, ix.evCount = make(map[wmap.MapID][]int), make(map[wmap.MapID]int), make(map[wmap.MapID]int)
		ix.lives, ix.evPerMap, ix.rollupTiers = make(headLives), make(map[wmap.MapID][]int), make(map[wmap.MapID][]rollupTier)
	}
	nb, nr, ne := len(ix.blocks), len(ix.rollups), len(ix.events)
	ix.strs, ix.blocks, ix.rollups, ix.events = fd.strs, fd.blocks, fd.rollups, fd.events
	var unsorted map[wmap.MapID]int
	mark := func(id wmap.MapID, list int) {
		if unsorted == nil {
			unsorted = make(map[wmap.MapID]int)
		}
		unsorted[id] |= list
	}
	newMap := false
	for i := nb; i < len(ix.blocks); i++ {
		m := &ix.blocks[i]
		id := wmap.MapID(ix.strs[m.mapRef])
		bl := ix.perMap[id]
		if len(bl) > 0 && m.baseUnix <= ix.blocks[bl[len(bl)-1]].lastUnix {
			mark(id, unsortedBlocks)
		}
		newMap = newMap || len(bl) == 0
		ix.perMap[id] = append(bl, i)
		ix.snaps[id] += m.points
		l := ix.lives.get(id)
		l.sealedLast = max(l.sealedLast, m.lastUnix)
		ix.lives[id] = l
	}
	for i := ne; i < len(ix.events); i++ {
		m := &ix.events[i]
		id := wmap.MapID(ix.strs[m.mapRef])
		ei := ix.evPerMap[id]
		if len(ei) > 0 && m.offset < ix.events[ei[len(ei)-1]].offset {
			mark(id, unsortedEvents)
		}
		ix.evPerMap[id] = append(ei, i)
		ix.evCount[id] += m.count
		l := ix.lives.get(id)
		l.evFront = max(l.evFront, m.lastPoint)
		ix.lives[id] = l
	}
	cloned := make(map[wmap.MapID]bool)
	for i := nr; i < len(ix.rollups); i++ {
		m := &ix.rollups[i]
		id := wmap.MapID(ix.strs[m.mapRef])
		tiers := ix.rollupTiers[id]
		if !cloned[id] {
			tiers, cloned[id] = slices.Clone(tiers), true
		}
		k := slices.IndexFunc(tiers, func(t rollupTier) bool { return t.res == m.res })
		if k < 0 {
			k = len(tiers)
			tiers = append(tiers, rollupTier{res: m.res})
			if k > 0 && tiers[k-1].res > m.res {
				mark(id, unsortedRollups)
			}
		} else if es := tiers[k].entries; rollupOrder(m, &ix.rollups[es[len(es)-1]]) < 0 {
			mark(id, unsortedRollups)
		}
		tiers[k].entries = append(tiers[k].entries, i)
		tiers[k].maxLast = max(tiers[k].maxLast, m.lastPoint)
		ix.rollupTiers[id] = tiers
	}
	for id, lists := range unsorted {
		if lists&unsortedBlocks != 0 {
			bl := slices.Clone(ix.perMap[id])
			slices.SortFunc(bl, func(a, b int) int { return cmp.Compare(ix.blocks[a].baseUnix, ix.blocks[b].baseUnix) })
			for k := 1; k < len(bl); k++ {
				if prev, cur := &ix.blocks[bl[k-1]], &ix.blocks[bl[k]]; cur.baseUnix <= prev.lastUnix {
					return corruptf(cur.offset, "map %s blocks overlap in time", id)
				}
			}
			ix.perMap[id] = bl
		}
		if lists&unsortedEvents != 0 {
			ei := slices.Clone(ix.evPerMap[id])
			slices.SortFunc(ei, func(a, b int) int { return cmp.Compare(ix.events[a].offset, ix.events[b].offset) })
			ix.evPerMap[id] = ei
		}
		if lists&unsortedRollups != 0 {
			tiers := ix.rollupTiers[id] // a copy made in this pass
			slices.SortFunc(tiers, func(a, b rollupTier) int { return cmp.Compare(a.res, b.res) })
			for k := range tiers {
				es := slices.Clone(tiers[k].entries)
				slices.SortFunc(es, func(a, b int) int { return rollupOrder(&ix.rollups[a], &ix.rollups[b]) })
				tiers[k].entries = es
			}
		}
	}
	if newMap {
		ix.sealed = make([]wmap.MapID, 0, len(ix.perMap))
		for id := range ix.perMap {
			ix.sealed = append(ix.sealed, id)
		}
		slices.Sort(ix.sealed)
	}
	return nil
}

// rollupOrder orders one tier's rollup blocks: by first bucket, then by
// offset.
func rollupOrder(a, b *rollupMeta) int {
	return cmp.Or(cmp.Compare(a.firstBucket, b.firstBucket), cmp.Compare(a.offset, b.offset))
}
