// Command wmcollect polls a weather-map website every interval and archives
// the SVG snapshots into a dataset directory, the role of the paper's
// two-year crawler.
//
// Usage:
//
//	wmcollect -url http://localhost:8080 -out DIR [-interval 1s]
//	          [-count N] [-maps europe,...] [-plan] [-archive FILE]
//
// Snapshots are stamped with the collector's wall-clock time unless the
// server's virtual time is desired; pair it with wmserve and match
// -interval to wmserve's -tick to collect one snapshot per virtual step.
//
// -archive additionally runs the extraction pipeline inline: every stored
// SVG is parsed and attributed on the spot and appended to a live tsdb
// archive (tsdb.OpenAppend), with a durable commit after each poll cycle —
// so a concurrent `wmserve -archive -live` serves the crawl as it happens,
// with no wmparse batch pass in between. Unparsable snapshots are counted
// and skipped, exactly as the batch pipeline would classify them later.
// SIGINT/SIGTERM closes the archive into the normal footered form.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wmcollect: ")

	var (
		url      = flag.String("url", "http://localhost:8080", "weather-map base URL")
		out      = flag.String("out", "", "dataset output directory (required)")
		interval = flag.Duration("interval", time.Second, "polling interval")
		count    = flag.Int("count", 0, "number of polls (0 = run forever)")
		mapsStr  = flag.String("maps", "europe,world,north-america,asia-pacific", "maps to collect")
		usePlan  = flag.Bool("plan", false, "apply the paper's outage plan")
		archive  = flag.String("archive", "", "also extract and append each snapshot to a live tsdb archive at `file`")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		log.Fatal("missing -out")
	}
	var ids []wmap.MapID
	for _, s := range strings.Split(*mapsStr, ",") {
		id, err := wmap.ParseMapID(s)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	store, err := dataset.Open(*out)
	if err != nil {
		log.Fatal(err)
	}
	plan := collect.Plan{}
	if *usePlan {
		plan = collect.DefaultPlan()
	}
	col := &collect.Collector{
		BaseURL: *url,
		Store:   store,
		Plan:    plan,
		Maps:    ids,
		Retries: 2,
	}

	// The live-ingest hook feeds a live archive committed once per cycle.
	var (
		arch *tsdb.Writer
		in   *ingester
	)
	if *archive != "" {
		arch, err = tsdb.OpenAppend(*archive)
		if err != nil {
			log.Fatal(err)
		}
		in = newIngester(arch, extract.DefaultOptions())
		col.OnStored = in.onStored
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var total collect.Stats
	code := 0
poll:
	for i := 0; *count == 0 || i < *count; i++ {
		// A fetch may run until the next poll is due, and no longer: a
		// stalled upstream costs one cycle's maps, not the crawl.
		start := time.Now()
		at := start.UTC().Truncate(time.Minute)
		pollCtx, cancel := context.WithDeadline(ctx, start.Add(*interval))
		st, err := col.CollectAt(pollCtx, at)
		cancel()
		if err != nil {
			log.Print(err)
			code = 1
			break
		}
		total.Fetched += st.Fetched
		total.NotModified += st.NotModified
		total.Skipped += st.Skipped
		total.Failed += st.Failed
		if st.Failed > 0 {
			log.Printf("%s: %d fetch failure(s)", at.Format(time.RFC3339), st.Failed)
		}
		if arch != nil {
			// One durable commit per cycle: everything this poll appended
			// becomes visible to tailing readers and crash recovery together.
			if err := arch.Sync(); err != nil {
				log.Print(err)
				code = 1
				break
			}
		}
		if *count == 0 || i < *count-1 {
			select {
			case <-ctx.Done():
				log.Print("signal received, stopping")
				break poll
			case <-time.After(*interval):
			}
		}
	}
	if arch != nil {
		if err := arch.Close(); err != nil {
			log.Print(err)
			code = 1
		} else {
			s := arch.Stats()
			hits, misses := in.cacheTotals()
			log.Printf("archive %s: %d snapshots appended this run (%d unparsable dropped), %d total, %d blocks; attribution cache %d hits / %d misses",
				*archive, in.appended, in.dropped, s.Snapshots, s.Blocks, hits, misses)
		}
	}
	log.Printf("collected %d snapshots (%d from cache, %d skipped, %d failed) into %s",
		total.Fetched, total.NotModified, total.Skipped, total.Failed, *out)
	os.Exit(code)
}

// ingester is the live-ingest hook behind -archive: every stored snapshot
// is scanned, attributed and appended to the archive. The collector polls
// the maps in turn, so each map keeps its own attribution cache — a cache
// holds one topology, and one shared across maps would miss on every call.
// The shared res is different: it keeps the scan templates of its last
// few layouts, one per map, so a poll that only changed loads is filled
// without lexing. OnStored runs on the poll goroutine, so nothing here is
// locked.
type ingester struct {
	arch              *tsdb.Writer
	opt               extract.Options
	caches            map[wmap.MapID]*extract.AttributionCache
	res               extract.ScanResult
	appended, dropped int
}

func newIngester(arch *tsdb.Writer, opt extract.Options) *ingester {
	return &ingester{arch: arch, opt: opt, caches: make(map[wmap.MapID]*extract.AttributionCache)}
}

// onStored is the collector's OnStored hook.
func (in *ingester) onStored(id wmap.MapID, t time.Time, data []byte) error {
	if last, ok := in.arch.LastTime(id); ok && !t.After(last) {
		return nil // resumed archive already has this poll's timestamp
	}
	if err := extract.ScanBytesInto(&in.res, data, extract.ScanOptions{}); err != nil {
		in.dropped++
		return nil // unparsable snapshot: the batch pipeline would classify it, not abort
	}
	cache := in.caches[id]
	if cache == nil {
		cache = extract.NewAttributionCache(in.opt)
		in.caches[id] = cache
	}
	m, err := cache.Attribute(&in.res, id, t)
	if err != nil {
		in.dropped++
		return nil
	}
	if err := in.arch.Append(m); err != nil {
		return err
	}
	in.appended++
	return nil
}

// cacheTotals sums the attribution cache counters over every map.
func (in *ingester) cacheTotals() (hits, misses int) {
	for _, c := range in.caches {
		hits += c.Hits()
		misses += c.Misses()
	}
	return hits, misses
}
