// Command wmanalyze regenerates every table and figure of the paper from a
// processed dataset (or, with -sim, directly from the simulator when no
// dataset has been generated yet):
//
//	Table 1  — per-map router and link counts with the dedup total
//	Table 2  — file counts and sizes, SVG vs YAML
//	Figure 2 — collection time frames per map
//	Figure 3 — inter-snapshot interval distribution
//	Figure 4 — infrastructure evolution and degree CCDF
//	Figure 5 — load distributions and ECMP imbalance
//	Figure 6 — the AMS-IX link-upgrade case study
//
// -cpuprofile and -memprofile write pprof profiles of the run.
//
// Snapshots come from one of three sources: -data walks the processed YAML
// corpus, -archive reads a columnar tsdb archive written by wmparse -archive
// (same analyses, same output, O(log n) time-range seeks instead of a
// directory walk), and -sim replays the simulator. Table 2 reports on-disk
// file counts, so it needs -data.
//
// Usage:
//
//	wmanalyze -data DIR [-map europe] [-figures all|1,2,4c,...]
//	wmanalyze -archive FILE [-map europe]
//	wmanalyze -sim [-map europe]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/dataset"
	"ovhweather/internal/netsim"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/prof"
	"ovhweather/internal/status"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// config carries the parsed flags into run.
type config struct {
	dir        string
	archive    string
	useSim     bool
	mapStr     string
	figures    string
	workers    int
	simStep    time.Duration
	cacheBytes int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wmanalyze: ")

	var (
		cfg      config
		profiles prof.Profiles
	)
	flag.StringVar(&cfg.dir, "data", "", "processed dataset directory")
	flag.StringVar(&cfg.archive, "archive", "", "columnar tsdb archive (alternative to -data)")
	flag.BoolVar(&cfg.useSim, "sim", false, "analyze the simulator directly instead of a dataset")
	flag.StringVar(&cfg.mapStr, "map", "europe", "map analyzed in Figures 4-6")
	flag.StringVar(&cfg.figures, "figures", "all", "comma-separated subset: 1,2,3,4,5,6 or all; add rollup for the tier-backed weekly fold (-archive only)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "YAML-decoding worker-pool size (1 = sequential); with -archive, the block-decode width of the snapshot walks (the column folds behind Figure 5c and the weekly fold always decode with GOMAXPROCS workers)")
	flag.DurationVar(&cfg.simStep, "sim-step", 6*time.Hour, "sampling step in -sim mode")
	flag.Int64Var(&cfg.cacheBytes, "block-cache", tsdb.DefaultBlockCacheBytes, "decoded-block cache budget in bytes for -archive reads (0 disables)")
	flag.StringVar(&profiles.CPU, "cpuprofile", "", "write a pprof CPU profile to `file`")
	flag.StringVar(&profiles.Mem, "memprofile", "", "write a pprof heap profile to `file`")
	flag.Parse()
	if cfg.dir == "" && cfg.archive == "" && !cfg.useSim {
		flag.Usage()
		log.Fatal("need -data, -archive, or -sim")
	}

	// Failures below this point route through run() so the deferred profile
	// flush still happens; log.Fatal would exit before the profiles are
	// written.
	stopProf, err := prof.Start(profiles)
	if err != nil {
		log.Fatal(err)
	}
	err = run(cfg)
	code := 0
	if perr := stopProf(); perr != nil {
		log.Print(perr)
		code = 1
	}
	if err != nil {
		log.Print(err)
		code = 1
	}
	os.Exit(code)
}

func run(cfg config) error {
	id, err := wmap.ParseMapID(cfg.mapStr)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, f := range strings.Split(cfg.figures, ",") {
		want[strings.TrimSpace(f)] = true
	}
	sel := func(f string) bool { return want["all"] || want[f] }
	out := os.Stdout

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var store *dataset.Store
	if cfg.dir != "" {
		if store, err = dataset.Open(cfg.dir); err != nil {
			return err
		}
	}
	var rd *tsdb.Reader
	if cfg.archive != "" {
		if rd, err = tsdb.OpenFile(cfg.archive); err != nil {
			return err
		}
		defer rd.Close()
		// The analyses re-stream the same blocks under several lenses
		// (Figures 4-6 each fold the corpus); the cache makes every pass
		// after the first decode-free.
		rd.SetBlockCache(tsdb.NewBlockCache(cfg.cacheBytes))
	}
	sc := netsim.DefaultScenario()
	var sim *netsim.Simulator
	if cfg.useSim {
		if sim, err = netsim.New(sc); err != nil {
			return err
		}
	}

	// stream yields the analyzed map's snapshots between from and to.
	stream := func(from, to time.Time, step time.Duration) analysis.Stream {
		if sim != nil {
			return func(yield func(*wmap.Map) error) error {
				// Each stream replays its own simulator so out-of-order
				// sections stay independent.
				s, err := netsim.New(sc)
				if err != nil {
					return err
				}
				for at := from; !at.After(to); at = at.Add(step) {
					m, err := s.MapAt(id, at)
					if err != nil {
						return err
					}
					if err := yield(m); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if rd != nil {
			return func(yield func(*wmap.Map) error) error {
				// The footer index seeks straight to the overlapping blocks;
				// snapshots outside [from, to] are never decoded. The
				// parallel cursor keeps the next blocks decoding on the
				// worker pool while this goroutine folds the current one.
				cur := rd.CursorParallel(ctx, id, from, to, cfg.workers)
				defer cur.Close()
				for cur.Next() {
					if err := ctx.Err(); err != nil {
						return err
					}
					// The analyses fold each snapshot and move on, so the
					// allocation-free scratch view is safe here.
					if err := yield(cur.MapView()); err != nil {
						return err
					}
				}
				return cur.Err()
			}
		}
		return func(yield func(*wmap.Map) error) error {
			// Snapshots decode on the ordered pool, which keeps
			// the yield order chronological, as the analyses require.
			return store.WalkMapsParallel(ctx, id, cfg.workers, func(m *wmap.Map) error {
				if m.Time.Before(from) || m.Time.After(to) {
					return nil
				}
				return yield(m)
			})
		}
	}

	// colStream is the whole-map columnar scan behind the multi-link folds:
	// one ordered pass decoding each block once, instead of re-streaming
	// per-snapshot maps for every lens. Archive-only; nil keeps the other
	// sources on the snapshot stream.
	var colStream func(from, to time.Time) analysis.ColumnStream
	if rd != nil {
		colStream = func(from, to time.Time) analysis.ColumnStream {
			return func(yield func(*analysis.LinkColumns) error) error {
				var lc analysis.LinkColumns
				return rd.GridColumns(ctx, id, from, to, func(c *tsdb.GridChunk) error {
					lc.Times = lc.Times[:0]
					for _, u := range c.Times {
						lc.Times = append(lc.Times, time.Unix(u, 0).UTC())
					}
					lc.Links = lc.Links[:0]
					for i := range c.Links {
						lc.Links = append(lc.Links, analysis.LinkCol{Link: c.Links[i], AB: c.AB[i], BA: c.BA[i]})
					}
					return yield(&lc)
				})
			}
		}
	}

	if sel("1") {
		analysis.Banner(out, "Table 1 — network size per map ("+sc.End.Format("2006-01-02")+")")
		maps, err := snapshotAll(sim, rd, store, sc)
		if err != nil {
			return err
		}
		rows, total := analysis.Table1(maps)
		if err := analysis.WriteTable1(out, rows, total); err != nil {
			return err
		}
	}
	if sel("2") && store != nil {
		analysis.Banner(out, "Table 2 — collected and processed files")
		sum, err := store.Summarize()
		if err != nil {
			return err
		}
		if err := analysis.WriteTable2(out, sum); err != nil {
			return err
		}
		analysis.Banner(out, "Figures 2 and 3 — collection quality")
		for _, mid := range wmap.AllMaps() {
			cov, err := store.CoverageOf(mid, dataset.ExtSVG)
			if err != nil {
				return err
			}
			if sel("2") {
				analysis.WriteCoverage(out, cov)
			}
			dist, err := store.IntervalsOf(mid, dataset.ExtSVG)
			if err != nil {
				return err
			}
			if sel("3") || sel("2") {
				analysis.WriteIntervals(out, dist)
			}
		}
	}
	if sel("4") {
		analysis.Banner(out, "Figure 4 — infrastructure evolution ("+id.Title()+")")
		infra, err := analysis.Infrastructure(stream(sc.Start, sc.End, 7*24*time.Hour))
		if err != nil {
			return err
		}
		analysis.WriteInfraSeries(out, infra, 60*24*time.Hour)
		var last *wmap.Map
		if err := stream(sc.End, sc.End, time.Hour)(func(m *wmap.Map) error { last = m.Clone(); return nil }); err != nil {
			return err
		}
		if last != nil {
			deg, err := analysis.DegreeCCDF(last)
			if err != nil {
				return err
			}
			analysis.WriteDegreeCCDF(out, deg)
		}
		feed := status.FromScenario(sc)
		corr := analysis.CorrelateMaintenance(infra, feed, 3, 8*24*time.Hour)
		analysis.WriteMaintenance(out, corr)
		growth, err := analysis.SiteGrowthStudy(stream(sc.Start, sc.End, 60*24*time.Hour))
		if err != nil {
			return err
		}
		analysis.WriteSiteGrowth(out, growth, 10)
	}
	if sel("5") {
		analysis.Banner(out, "Figure 5 — links loads ("+id.Title()+")")
		from := sc.Start.AddDate(0, 6, 0)
		to := from.AddDate(0, 0, 7)
		step := cfg.simStep
		if step > time.Hour {
			step = time.Hour
		}
		hourly, err := analysis.HourlyLoads(stream(from, to, step))
		if err != nil {
			return err
		}
		analysis.WriteHourlyLoads(out, hourly)
		loads, err := analysis.LoadCDF(stream(from, to, cfg.simStep))
		if err != nil {
			return err
		}
		analysis.WriteLoadCDF(out, loads)
		var imb *analysis.ImbalanceView
		if colStream != nil {
			imb, err = analysis.ImbalanceCDFColumns(colStream(from, to), wmap.PaperImbalanceOptions())
		} else {
			imb, err = analysis.ImbalanceCDF(stream(from, to, cfg.simStep), wmap.PaperImbalanceOptions())
		}
		if err != nil {
			return err
		}
		analysis.WriteImbalance(out, imb)
		cong, err := analysis.CongestionStudy(stream(from, to, cfg.simStep), analysis.DefaultCongestionOptions())
		if err != nil {
			return err
		}
		analysis.WriteCongestion(out, cong)
		var weekly *analysis.WeeklyView
		if colStream != nil {
			weekly, err = analysis.WeeklyLoadsColumns(colStream(from, from.AddDate(0, 0, 14)))
		} else {
			weekly, err = analysis.WeeklyLoads(stream(from, from.AddDate(0, 0, 14), cfg.simStep))
		}
		if err != nil {
			return err
		}
		analysis.WriteWeekly(out, weekly)
	}
	// The rollup fold is opt-in (not part of "all"): it needs an archive with
	// pre-aggregated tiers, and it demonstrates the long-range path — the
	// whole corpus folds from the 1h tier without decoding a single raw
	// block.
	if want["rollup"] {
		analysis.Banner(out, "Weekly loads from the 1h rollup tier ("+id.Title()+")")
		if rd == nil {
			return fmt.Errorf("-figures rollup needs -archive; rollup tiers live in the tsdb archive")
		}
		bks, err := rd.RollupTotals(ctx, id, time.Hour, time.Time{}, time.Time{})
		switch {
		case errors.Is(err, tsdb.ErrNoRollup):
			fmt.Fprintln(out, "archive carries no 1h rollup tier; rewrite it with wmparse -archive to add one")
		case err != nil:
			return err
		default:
			aggs := make([]analysis.HourAgg, len(bks))
			for i, b := range bks {
				aggs[i] = analysis.HourAgg{Start: b.Start, Count: b.Samples, Sum: b.Sum, Min: b.Min, Max: b.Max}
			}
			v, err := analysis.WeeklyMeans(aggs)
			if err != nil {
				return err
			}
			analysis.WriteWeeklyMeans(out, v)
		}
	}
	if sel("6") {
		analysis.Banner(out, "Figure 6 — link upgrade study ("+sc.Upgrade.Peering+")")
		db := peeringdb.New()
		db.Announce(peeringdb.Record{
			Peering: sc.Upgrade.Peering, Network: "OVH",
			Gbps: sc.Upgrade.GbpsBefore, Updated: sc.Start,
		})
		db.Announce(peeringdb.Record{
			Peering: sc.Upgrade.Peering, Network: "OVH",
			Gbps: sc.Upgrade.GbpsAfter, Updated: sc.Upgrade.DBUpdated,
			Comment: "new 100G link",
		})
		from := sc.Upgrade.Added.AddDate(0, 0, -10)
		to := sc.Upgrade.Activated.AddDate(0, 0, 10)
		v, err := analysis.UpgradeStudy(stream(from, to, 2*time.Hour), sc.Upgrade.Peering, db)
		if err != nil {
			return err
		}
		analysis.WriteUpgrade(out, v)
	}
	fmt.Fprintln(out)
	return nil
}

// snapshotAll fetches all four maps at the scenario end, from the simulator,
// the archive, or the dataset. The archive and dataset branches both take
// each map's last snapshot, so the two sources agree.
func snapshotAll(sim *netsim.Simulator, rd *tsdb.Reader, store *dataset.Store, sc netsim.Scenario) ([]*wmap.Map, error) {
	if sim != nil {
		return sim.SnapshotAt(sc.End)
	}
	var out []*wmap.Map
	for _, id := range wmap.AllMaps() {
		if rd != nil {
			_, last, ok := rd.Bounds(id)
			if !ok {
				continue
			}
			m, err := rd.SnapshotAt(id, last)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			continue
		}
		entries, err := store.Index(id, dataset.ExtYAML)
		if err != nil {
			return nil, err
		}
		if len(entries) == 0 {
			continue
		}
		m, err := store.LoadMap(id, entries[len(entries)-1].Time)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no processed snapshots found; run wmparse first")
	}
	return out, nil
}
