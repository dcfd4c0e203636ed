package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/render"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// ingest models live collection at the wmcollect -archive cadence. One op
// is one poll: each of the four maps is scanned, attributed and appended,
// then one Sync commits the poll and one tailing Reader.Refresh adopts it.
// The SVGs come from a pool of pre-rendered ticks around a Europe topology
// change, replayed with advancing timestamps, so each wrap of the pool
// costs the same attribution misses and churn.
type ingest struct {
	dir   string
	pool  [][]poolSnap // [tick][map]
	start time.Time    // timestamp of op 0

	w      *tsdb.Writer
	rd     *tsdb.Reader
	caches map[wmap.MapID]*extract.AttributionCache // one per map, as the batch pipeline keeps one per worker
	res    extract.ScanResult
	got    []*wmap.Map // the last op's attributed maps, checked after it

	scanned int64 // SVG bytes scanned by traced ops
	base    tsdb.ArchiveStats
	prefix  prefixCounts
}

type poolSnap struct {
	want *wmap.Map // simulator truth
	svg  []byte
}

// prefixCounts are the deterministic counts of the first two pool wraps.
type prefixCounts struct {
	stats        tsdb.ArchiveStats
	hits, misses int
	snapshots    int
}

func newIngest(cfg *config, dir string) (workload, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	_, month := seeded(cfg.seed)
	from := change(month).Add(-time.Duration(cfg.sz.poolTicks/2) * tick)
	sim, err := newSimulator()
	if err != nil {
		return nil, st, err
	}
	scenes := render.NewSceneCache(render.Options{})
	w := &ingest{dir: dir, start: from, caches: make(map[wmap.MapID]*extract.AttributionCache)}
	for k := 0; k < cfg.sz.poolTicks; k++ {
		maps, err := sim.SnapshotAt(from.Add(time.Duration(k) * tick))
		if err != nil {
			return nil, st, err
		}
		var row []poolSnap
		for _, m := range maps {
			svg, err := renderSVG(scenes, m)
			if err != nil {
				return nil, st, err
			}
			row = append(row, poolSnap{want: m, svg: svg})
		}
		w.pool = append(w.pool, row)
	}
	for _, s := range w.pool[0] {
		w.caches[s.want.ID] = extract.NewAttributionCache(extract.DefaultOptions())
	}
	st.inputs = time.Since(t0)

	// A fresh live archive with the default rollups and event detection;
	// the first Sync commits its empty state so the tailing reader can open.
	t0 = time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	path := filepath.Join(dir, "ingest.tsdb")
	if w.w, err = tsdb.OpenAppend(path); err != nil {
		return nil, st, err
	}
	if err := w.w.Sync(); err != nil {
		w.close()
		return nil, st, err
	}
	w.base = w.w.Stats()
	st.build = time.Since(t0)

	t0 = time.Now()
	if w.rd, err = tsdb.OpenFile(path); err != nil {
		w.close()
		return nil, st, err
	}
	st.open = time.Since(t0)
	return w, st, nil
}

func (w *ingest) op(i int, tr *tracer) error {
	at := w.start.Add(time.Duration(i) * tick)
	w.got = w.got[:0]
	for _, s := range w.pool[i%len(w.pool)] {
		id := s.want.ID
		sp := tr.begin("extract.scan")
		err := extract.ScanBytesInto(&w.res, s.svg, extract.ScanOptions{})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("scan %s: %w", id, err)
		}
		if tr.on {
			w.scanned += int64(len(s.svg))
		}
		sp = tr.begin("extract.attribute")
		m, err := w.caches[id].Attribute(&w.res, id, at)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("attribute %s: %w", id, err)
		}
		sp = tr.begin("tsdb.append")
		err = w.w.Append(m)
		tr.end(sp)
		if err != nil {
			return err
		}
		w.got = append(w.got, m)
	}
	sp := tr.begin("tsdb.sync")
	err := w.w.Sync()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("tsdb.refresh")
	changed, err := w.rd.Refresh()
	tr.end(sp)
	if err != nil {
		return err
	}
	if !changed {
		return fmt.Errorf("refresh adopted nothing after commit %d", w.w.Version())
	}
	return nil
}

// check compares every attributed map with the simulator map it was
// rendered from, and the tailing reader's snapshot count with the ops
// committed so far.
func (w *ingest) check(i int) (bool, error) {
	for k, s := range w.pool[i%len(w.pool)] {
		if err := sameMap(s.want, w.got[k]); err != nil {
			return true, fmt.Errorf("tick %d: %w", i, err)
		}
		if n := w.rd.Snapshots(s.want.ID); n != i+1 {
			return true, fmt.Errorf("tick %d: tailing reader sees %d %s snapshots, want %d", i, n, s.want.ID, i+1)
		}
	}
	if i+1 == w.minOps() {
		p := prefixCounts{stats: w.w.Stats(), snapshots: (i + 1) * len(w.pool[0])}
		for _, c := range w.caches {
			p.hits += c.Hits()
			p.misses += c.Misses()
		}
		w.prefix = p
	}
	return true, nil
}

// minOps covers two pool wraps: the first pays the cold attribution
// misses, the second only the fixed per-wrap ones.
func (w *ingest) minOps() int { return 2 * len(w.pool) }

func (w *ingest) bytesPerSnapshot() float64 {
	return float64(w.prefix.stats.Bytes-w.base.Bytes) / float64(w.prefix.snapshots)
}

func (w *ingest) counters(ops int, layers map[string]*layerStats) map[string]float64 {
	p, b := w.prefix, w.base
	c := map[string]float64{
		"extract.cache_hit_ratio": float64(p.hits) / float64(p.hits+p.misses),
		"extract.cache_misses":    float64(p.misses),
		"tsdb.blocks_written":     float64(p.stats.Blocks + p.stats.RollupBlocks + p.stats.EventBlocks - b.Blocks - b.RollupBlocks - b.EventBlocks),
		"tsdb.bytes_written":      float64(p.stats.Bytes - b.Bytes),
	}
	if ls := layers["extract.scan"]; ls != nil && ls.self > 0 {
		c["svg.scan_mb_per_s"] = float64(w.scanned) / 1e6 / ls.self.Seconds()
	}
	return c
}

func (w *ingest) summary() string {
	p := w.prefix
	return fmt.Sprintf("pool of %d ticks from %s; first %d ticks: %d attribution misses, %d hits, %d frames, %d bytes",
		len(w.pool), w.start.Format(time.RFC3339), w.minOps(), p.misses, p.hits,
		p.stats.Blocks+p.stats.RollupBlocks+p.stats.EventBlocks-w.base.Blocks-w.base.RollupBlocks-w.base.EventBlocks,
		p.stats.Bytes-w.base.Bytes)
}

func (w *ingest) close() error {
	var err error
	if w.rd != nil {
		err = w.rd.Close()
	}
	if w.w != nil {
		if cerr := w.w.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
