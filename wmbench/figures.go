package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// twoYearSnapshots is a two-year archive's snapshots of one map, the span
// the paper's crawler covers.
const twoYearSnapshots = 2 * 365 * 24 * 12

// figures runs the Figure 5 suite the way wmanalyze -archive does: one op
// is one pass of five folds over a rotating Europe window, three over the
// parallel cursor's map views and two over GridColumns. The batch-written
// archive is cut into raw blocks of figBlockPoints snapshots and every
// window covers whole blocks, so each fold decodes exactly the snapshots it
// folds, as a pass over a long archive does. The decoded-block cache is as
// much smaller than a window's blocks as the default budget is than a
// two-year archive, so every fold decodes its blocks again.
type figures struct {
	cfg     *config
	dir     string
	rd, crd *tsdb.Reader // crd serves the checks, so rd's counters are the ops'
	sim     *netsim.Simulator
	windows []time.Time // fold-window starts, in seeded rotation order
	bytes   int64
	budget  int64

	last figureViews // the last op's results, checked after it
}

type figureViews struct {
	hourly *analysis.HourlyLoadView
	loads  *analysis.LoadDistView
	cong   *analysis.CongestionView
	imb    *analysis.ImbalanceView
	weekly *analysis.WeeklyView
}

func newFigures(cfg *config, dir string) (workload, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	rng, month := seeded(cfg.seed)
	// The archive is centred on the month's topology change, which falls on
	// a block boundary, so every raw block holds figBlockPoints snapshots.
	start := change(month).Add(-time.Duration(cfg.sz.figSnapshots/2) * tick)
	sim, err := newSimulator()
	if err != nil {
		return nil, st, err
	}
	winSnaps := cfg.sz.figBlockPoints * cfg.sz.figWindowBlocks
	w := &figures{cfg: cfg, dir: dir, budget: tsdb.DefaultBlockCacheBytes * int64(winSnaps) / twoYearSnapshots}
	if w.sim, err = newSimulator(); err != nil {
		return nil, st, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	path := filepath.Join(dir, "figures.tsdb")
	if w.bytes, err = writeBatch(path, cfg.sz.figBlockPoints, simStream(sim, wmap.Europe, start, cfg.sz.figSnapshots, &st.inputs)); err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0) - st.inputs

	t0 = time.Now()
	if w.rd, err = tsdb.OpenFile(path); err != nil {
		return nil, st, err
	}
	w.rd.SetBlockCache(tsdb.NewBlockCache(w.budget))
	st.open = time.Since(t0)
	blocks := cfg.sz.figSnapshots / cfg.sz.figBlockPoints
	if n := w.rd.Stats().Blocks; n != blocks {
		w.close()
		return nil, st, fmt.Errorf("archive from %s holds %d raw blocks, want %d", start.Format(time.RFC3339), n, blocks)
	}
	// The checks read through their own uncached reader, so they neither
	// touch rd's cache counters nor hold decoded blocks the ops do not.
	if w.crd, err = tsdb.OpenFile(path); err != nil {
		w.close()
		return nil, st, err
	}
	w.crd.SetBlockCache(nil)

	// Windows start on block boundaries, in seeded order.
	for _, k := range rng.Perm(blocks - cfg.sz.figWindowBlocks + 1) {
		w.windows = append(w.windows, start.Add(time.Duration(k*cfg.sz.figBlockPoints)*tick))
	}
	return w, st, nil
}

func (w *figures) window(i int) (from, to time.Time) {
	from = w.windows[i%len(w.windows)]
	return from, from.Add(time.Duration(w.cfg.sz.figBlockPoints*w.cfg.sz.figWindowBlocks-1) * tick)
}

func (w *figures) op(i int, tr *tracer) error {
	from, to := w.window(i)
	stream := w.stream(w.rd, from, to, tr)
	cols := w.columns(from, to, tr)
	var (
		v   figureViews
		err error
	)
	sp := tr.begin("analysis.hourly")
	v.hourly, err = analysis.HourlyLoads(stream)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("hourly loads: %w", err)
	}
	sp = tr.begin("analysis.loadcdf")
	v.loads, err = analysis.LoadCDF(stream)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("load CDF: %w", err)
	}
	sp = tr.begin("analysis.congestion")
	v.cong, err = analysis.CongestionStudy(stream, analysis.DefaultCongestionOptions())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("congestion: %w", err)
	}
	sp = tr.begin("analysis.imbalance")
	v.imb, err = analysis.ImbalanceCDFColumns(cols, wmap.PaperImbalanceOptions())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("imbalance: %w", err)
	}
	sp = tr.begin("analysis.weekly")
	v.weekly, err = analysis.WeeklyLoadsColumns(cols)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("weekly loads: %w", err)
	}
	w.last = v
	return nil
}

// stream is wmanalyze's archive stream: a parallel cursor (workers = the
// CPU count) handing out map views. Every wait on the cursor — open, each
// Next with its view, and Close — is a tsdb.cursor.next span.
func (w *figures) stream(rd *tsdb.Reader, from, to time.Time, tr *tracer) analysis.Stream {
	return func(yield func(*wmap.Map) error) error {
		sp := tr.begin("tsdb.cursor.next")
		cur := rd.CursorParallel(context.Background(), wmap.Europe, from, to, runtime.NumCPU())
		tr.end(sp)
		defer func() {
			sp := tr.begin("tsdb.cursor.next")
			cur.Close()
			tr.end(sp)
		}()
		for {
			sp := tr.begin("tsdb.cursor.next")
			ok := cur.Next()
			var m *wmap.Map
			if ok {
				m = cur.MapView()
			}
			tr.end(sp)
			if !ok {
				return cur.Err()
			}
			if err := yield(m); err != nil {
				return err
			}
		}
	}
}

// columns is wmanalyze's column stream over GridColumns. The time spent in
// GridColumns outside the fold's callback is one tsdb.gridcolumns span per
// stretch between callbacks.
func (w *figures) columns(from, to time.Time, tr *tracer) analysis.ColumnStream {
	return func(yield func(*analysis.LinkColumns) error) error {
		var lc analysis.LinkColumns
		sp := tr.begin("tsdb.gridcolumns")
		err := w.rd.GridColumns(context.Background(), wmap.Europe, from, to, func(c *tsdb.GridChunk) error {
			tr.end(sp)
			lc.Times = lc.Times[:0]
			for _, u := range c.Times {
				lc.Times = append(lc.Times, time.Unix(u, 0).UTC())
			}
			lc.Links = lc.Links[:0]
			for i := range c.Links {
				lc.Links = append(lc.Links, analysis.LinkCol{Link: c.Links[i], AB: c.AB[i], BA: c.BA[i]})
			}
			err := yield(&lc)
			sp = tr.begin("tsdb.gridcolumns")
			return err
		})
		tr.end(sp)
		return err
	}
}

// check compares, on the first op and one in checkEvery, all five folds
// with the same folds over the simulator's maps, and the two column folds
// with the stream folds (ImbalanceCDF, WeeklyLoads) over the archive.
func (w *figures) check(i int) (bool, error) {
	if i%w.cfg.sz.checkEvery != 0 {
		return false, nil
	}
	from, to := w.window(i)
	truth, err := simMaps(w.sim, wmap.Europe, from, int(to.Sub(from)/tick)+1)
	if err != nil {
		return true, err
	}
	ts := analysis.SliceStream(truth)
	var want figureViews
	if want.hourly, err = analysis.HourlyLoads(ts); err != nil {
		return true, err
	}
	if want.loads, err = analysis.LoadCDF(ts); err != nil {
		return true, err
	}
	if want.cong, err = analysis.CongestionStudy(ts, analysis.DefaultCongestionOptions()); err != nil {
		return true, err
	}
	if want.imb, err = analysis.ImbalanceCDF(ts, wmap.PaperImbalanceOptions()); err != nil {
		return true, err
	}
	if want.weekly, err = analysis.WeeklyLoads(ts); err != nil {
		return true, err
	}
	if !reflect.DeepEqual(w.last, want) {
		return true, fmt.Errorf("window %s: folds over the archive differ from folds over the simulator", from.Format(time.RFC3339))
	}
	off := &tracer{}
	stream := w.stream(w.crd, from, to, off)
	imb, err := analysis.ImbalanceCDF(stream, wmap.PaperImbalanceOptions())
	if err != nil {
		return true, err
	}
	weekly, err := analysis.WeeklyLoads(stream)
	if err != nil {
		return true, err
	}
	if !reflect.DeepEqual(imb, w.last.imb) || !reflect.DeepEqual(weekly, w.last.weekly) {
		return true, fmt.Errorf("window %s: column folds differ from stream folds", from.Format(time.RFC3339))
	}
	return true, nil
}

func (w *figures) minOps() int { return 1 }

func (w *figures) bytesPerSnapshot() float64 {
	return float64(w.bytes) / float64(w.cfg.sz.figSnapshots)
}

func (w *figures) counters(ops int, _ map[string]*layerStats) map[string]float64 {
	cs := w.rd.BlockCache().Stats()
	return map[string]float64{
		"tsdb.blockcache.hit_ratio": float64(cs.Hits) / float64(max(cs.Hits+cs.Misses, 1)),
		"tsdb.blockcache.evictions": float64(cs.Evictions) / float64(ops),
	}
}

func (w *figures) summary() string {
	from, _ := w.window(0)
	return fmt.Sprintf("%d-snapshot archive of %d bytes in %d-snapshot blocks, %d-block windows from %s, block cache %d bytes",
		w.cfg.sz.figSnapshots, w.bytes, w.cfg.sz.figBlockPoints, w.cfg.sz.figWindowBlocks, from.Format(time.RFC3339), w.budget)
}

func (w *figures) close() error { return closeReaders(w.dir, w.rd, w.crd) }
