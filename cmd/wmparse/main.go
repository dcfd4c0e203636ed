// Command wmparse runs the paper's processing pipeline over a dataset:
// every collected SVG snapshot is parsed (Algorithm 1), geometrically
// attributed (Algorithm 2), sanity-checked, and written out as a YAML file
// next to the original. Unprocessable files are counted by failure class,
// reproducing the paper's accounting of invalid and incomplete snapshots.
//
// Snapshots are independent, so the pipeline fans out to a worker pool;
// -workers 1 reproduces the sequential behaviour exactly. Ctrl-C cancels
// the run cleanly: no new snapshots are scheduled, in-flight workers drain,
// and the store is left resumable (atomic writes, no half-written YAML).
//
// Parsing uses the zero-allocation fast lexer, falling back to encoding/xml
// for documents outside its subset. -cpuprofile and -memprofile write pprof
// profiles of the run.
//
// -archive FILE additionally streams every processed snapshot — in
// chronological order per map, including snapshots already processed by an
// earlier run — into a columnar tsdb archive (see internal/tsdb), the input
// of wmanalyze -archive and the wmserve query API. The archive also carries
// pre-aggregated rollup tiers for long-range queries; -rollups picks the
// tier resolutions (default 1h,24h; "off" disables them). Evolution-event
// detectors (topology churn, capacity upgrades, maintenance drains,
// congestion onset/clear — see internal/events) run at write time and
// persist their event log alongside the series; -events=false turns them
// off. The log feeds wmevents, GET /api/v1/events, and wmserve's SSE
// stream.
//
// -follow (requires -archive) turns the one-shot run into a live ingester:
// the archive is opened in append mode (resuming whatever a previous run —
// even one that crashed mid-append — committed), and after the initial
// catch-up pass the dataset directory is re-scanned every -poll interval
// for snapshots newer than each map's archived tail. Each cycle ends with
// Writer.Sync, so a concurrent `wmserve -archive -live` adopts the new
// snapshots within its refresh interval. Ctrl-C closes the archive cleanly
// into the normal footered form.
//
// Usage:
//
//	wmparse -data DIR [-maps europe,...] [-workers N] [-threshold 40]
//	        [-archive FILE] [-rollups 1h,24h] [-events] [-follow] [-poll 2s]
//	        [-cpuprofile FILE] [-memprofile FILE] [-quiet]
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

	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/prof"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wmparse: ")

	var (
		dir       = flag.String("data", "", "dataset directory (required)")
		mapsStr   = flag.String("maps", "europe,world,north-america,asia-pacific", "maps to process")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (1 = sequential)")
		threshold = flag.Float64("threshold", 40, "label attribution distance threshold (px)")
		colors    = flag.Bool("verify-colors", false, "cross-check load percentages against arrow colors")
		archive   = flag.String("archive", "", "also write a columnar tsdb archive to `file`")
		rollups   = flag.String("rollups", "1h,24h", "comma-separated rollup tier resolutions for -archive (off disables)")
		evDetect  = flag.Bool("events", true, "run the evolution-event detectors and persist their event log in -archive")
		follow    = flag.Bool("follow", false, "keep running: append snapshots to the archive as they land in -data")
		poll      = flag.Duration("poll", 2*time.Second, "directory re-scan interval in -follow mode")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		profiles  prof.Profiles
	)
	flag.StringVar(&profiles.CPU, "cpuprofile", "", "write a pprof CPU profile to `file`")
	flag.StringVar(&profiles.Mem, "memprofile", "", "write a pprof heap profile to `file`")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		log.Fatal("missing -data")
	}
	if *follow && *archive == "" {
		log.Fatal("-follow requires -archive")
	}

	// Failures below this point route through run() so the deferred profile
	// flush still happens; log.Fatal would exit before the profiles are
	// written.
	stopProf, err := prof.Start(profiles)
	if err != nil {
		log.Fatal(err)
	}
	code, err := run(*dir, *mapsStr, *workers, *threshold, *colors, *quiet, *archive, *rollups, *evDetect, *follow, *poll)
	if perr := stopProf(); perr != nil {
		log.Print(perr)
		if code == 0 {
			code = 1
		}
	}
	if err != nil {
		log.Print(err)
		code = 1
	}
	os.Exit(code)
}

// parseRollups turns the -rollups flag into tier resolutions. "off", "none",
// and the empty string disable rollup maintenance (an explicit zero-argument
// SetRollupResolutions call).
func parseRollups(s string) ([]time.Duration, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none":
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-rollups: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}

func run(dir, mapsStr string, workers int, threshold float64, colors, quiet bool, archive, rollups string, evDetect, follow bool, poll time.Duration) (int, error) {
	store, err := dataset.Open(dir)
	if err != nil {
		return 1, err
	}
	opt := extract.DefaultOptions()
	opt.LabelThreshold = threshold
	opt.VerifyColors = colors

	ids := make([]wmap.MapID, 0, 4)
	for _, s := range strings.Split(mapsStr, ",") {
		id, err := wmap.ParseMapID(s)
		if err != nil {
			return 1, err
		}
		ids = append(ids, id)
	}

	// The archive writer taps the pipeline through ProcessOptions.Emit, which
	// delivers each map's snapshots in chronological order — the contract
	// Writer.Append enforces. Follow mode appends to a live archive instead
	// of rebuilding one, resuming from whatever a previous run committed.
	var arch *tsdb.Writer
	if archive != "" {
		if follow {
			arch, err = tsdb.OpenAppend(archive)
		} else {
			arch, err = tsdb.Create(archive)
		}
		if err != nil {
			return 1, err
		}
		defer arch.Close()
		// Rollup tiers are configured before the first append; OpenAppend
		// replays the committed tail under the same tiers on first use.
		tiers, err := parseRollups(rollups)
		if err != nil {
			return 1, err
		}
		if err := arch.SetRollupResolutions(tiers...); err != nil {
			return 1, err
		}
		// Event detection is on by default; -events=false strips the event
		// log entirely (the archive stays readable by every consumer).
		if !evDetect {
			if err := arch.SetEventDetection(false, nil); err != nil {
				return 1, err
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exitCode := 0
	// pass sweeps every map once. In follow mode later passes set EmitFrom to
	// each map's archived tail, so a quiet poll costs one directory scan and
	// re-processes nothing; reports are only logged when work happened.
	pass := func(first bool) error {
		for _, id := range ids {
			id := id
			progress := func(done, total int) {
				if !quiet && first && total > 0 && done%500 == 0 {
					fmt.Fprintf(os.Stderr, "\r%s: %d/%d", id, done, total)
				}
			}
			popt := dataset.ProcessOptions{
				Workers:  workers,
				Extract:  opt,
				Progress: progress,
			}
			if arch != nil {
				popt.Emit = arch.Append
				// A resumed live archive already holds a prefix of the series;
				// emitting it again would (rightly) trip Append's ErrOutOfOrder.
				if follow {
					if lt, ok := arch.LastTime(id); ok {
						popt.EmitFrom = lt
					}
				}
			}
			rep, err := store.ProcessMapParallel(ctx, id, popt)
			if !quiet && first {
				fmt.Fprintln(os.Stderr)
			}
			if err != nil {
				if errors.Is(err, context.Canceled) {
					log.Printf("%s (interrupted)", rep)
					return errors.New("interrupted")
				}
				return err
			}
			if first || rep.Total() > 0 {
				log.Print(rep)
			}
			if rep.Failed() > 0 {
				exitCode = 1
			}
		}
		return nil
	}

	if err := pass(true); err != nil {
		return 1, err
	}
	if follow {
		// Publish the catch-up pass, then tail the directory until Ctrl-C.
		if err := arch.Sync(); err != nil {
			return 1, fmt.Errorf("archive: %w", err)
		}
		if !quiet {
			st := arch.Stats()
			log.Printf("following %s every %s (archive %s at %d snapshots, commit version %d)",
				dir, poll, archive, st.Snapshots, arch.Version())
		}
		tk := time.NewTicker(poll)
		defer tk.Stop()
	followLoop:
		for {
			select {
			case <-ctx.Done():
				break followLoop
			case <-tk.C:
				if err := pass(false); err != nil {
					return 1, err
				}
				if err := arch.Sync(); err != nil {
					return 1, fmt.Errorf("archive: %w", err)
				}
			}
		}
		log.Print("interrupted, closing archive")
	}
	if arch != nil {
		if err := arch.Close(); err != nil {
			return 1, fmt.Errorf("archive: %w", err)
		}
		st := arch.Stats()
		log.Printf("archive %s: %d snapshots, %d blocks, %d topologies, %d bytes",
			archive, st.Snapshots, st.Blocks, st.Topologies, st.Bytes)
	}
	return exitCode, nil
}
