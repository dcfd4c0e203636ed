// Command wmserve runs the synthetic OVH Network Weathermap website: an
// HTTP server exposing the current SVG image of each backbone map, updated
// every tick of a virtual clock that compresses simulated time.
//
// Usage:
//
//	wmserve [-addr :8080] [-start RFC3339] [-step 5m] [-tick 1s]
//	        [-archive FILE] [-live] [-refresh 2s] [-block-cache BYTES]
//	        [-pprof 127.0.0.1:6060]
//
// Every -tick of wall-clock time advances the simulation by -step, exactly
// like the real site's five-minute refresh, so a collector pointed at
// http://ADDR/map/europe.svg observes the same update pattern the paper's
// crawler did.
//
// -archive mounts the read-only query API of a columnar tsdb archive (see
// internal/tsdb) under /api/v1/ alongside the live site:
//
//	GET /api/v1/maps
//	GET /api/v1/topology?map=&at=
//	GET /api/v1/links/{id}/load?from=&to=&step=
//	GET /api/v1/grid?from=&to=&step=&bands=&links=
//	GET /api/v1/imbalance?map=&at=
//	GET /api/v1/events?map=&type=&from=&to=
//	GET /api/v1/stream              (SSE, -live only)
//	GET /api/v1/stats
//
// Archive queries serve decoded blocks from a sharded in-process LRU sized
// by -block-cache (default 64 MiB, 0 disables); cache hit/miss/eviction
// counters are visible on /api/v1/stats and, with the rest of the
// process's expvar state (including tsdb_events), on /debug/vars.
//
// -live tails an archive that a concurrent `wmparse -follow` (or wmcollect
// -archive) is still appending to: every -refresh interval the reader
// adopts newly committed blocks, /api/v1/stats advertises the growing
// covered time range, and ETags roll forward so stale clients re-fetch.
// In-flight queries are never disturbed — each pins the committed snapshot
// it started on. Evolution events committed by the writer are republished
// to /api/v1/stream subscribers as they are adopted.
//
// -pprof mounts net/http/pprof on a second, loopback-only listener so CPU
// and heap profiles can be taken from the box without exposing the
// profiler on the public address; any non-loopback host is rejected at
// startup.
//
// /healthz answers 200 as soon as the process serves; /readyz answers 503
// until the archive is open and, in -live mode, the tail has caught up to
// the writer's latest commit, then 200 — the split load balancers expect.
//
// SIGINT or SIGTERM shuts the server down gracefully: in-flight requests
// drain (bounded by a timeout), the virtual clock stops, and the process
// exits 0. A virtual clock that fails maxTickFailures consecutive ticks
// aborts the server with a nonzero exit instead of spinning forever.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/events"
	"ovhweather/internal/netsim"
	"ovhweather/internal/status"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// maxTickFailures is the consecutive SetTime-failure cap: a virtual clock
// that cannot advance (for example after simulated time runs past the
// scenario end) must stop the server rather than log the same error once a
// second forever.
const maxTickFailures = 10

// shutdownTimeout bounds how long in-flight requests may drain after a
// shutdown signal.
const shutdownTimeout = 5 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("wmserve: ")

	var (
		addr     = flag.String("addr", ":8080", "listen address")
		startStr = flag.String("start", "2020-07-01T00:00:00Z", "virtual start time (RFC3339)")
		step     = flag.Duration("step", 5*time.Minute, "virtual time per tick")
		tick     = flag.Duration("tick", time.Second, "wall-clock tick interval")
		archive  = flag.String("archive", "", "serve the tsdb archive query API from `file` under /api/v1/")
		live     = flag.Bool("live", false, "tail a still-appending archive: refresh the reader as blocks are committed")
		refresh  = flag.Duration("refresh", 2*time.Second, "how often -live polls the archive for new committed blocks")
		cacheB   = flag.Int64("block-cache", tsdb.DefaultBlockCacheBytes, "decoded-block cache budget in `bytes` for archive queries (0 disables)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this loopback-only `address` (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()
	start, err := time.Parse(time.RFC3339, *startStr)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	if *live && *archive == "" {
		log.Fatal("-live requires -archive")
	}
	if *pprofA != "" {
		host, _, err := net.SplitHostPort(*pprofA)
		if err != nil || !isLoopbackHost(host) {
			log.Fatalf("-pprof %q: must bind a loopback address (e.g. 127.0.0.1:6060) — profiles expose process internals", *pprofA)
		}
	}
	os.Exit(run(*addr, *archive, *cacheB, start, *step, *tick, *live, *refresh, *pprofA))
}

// isLoopbackHost accepts only hosts that cannot leave the machine; the
// pprof endpoint exposes heap contents and must never face the network.
func isLoopbackHost(h string) bool {
	if h == "localhost" {
		return true
	}
	ip := net.ParseIP(h)
	return ip != nil && ip.IsLoopback()
}

// health backs the /healthz and /readyz probes. Liveness is serving at
// all; readiness flips once the archive is open and the live tail has
// caught up, and carries the reason while it has not.
type health struct {
	ready  atomic.Bool
	reason atomic.Value // string: why not ready yet
}

func newHealth(reason string) *health {
	h := &health{}
	h.reason.Store(reason)
	return h
}

func (h *health) markReady() { h.ready.Store(true) }

func (h *health) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (h *health) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.ready.Load() {
		io.WriteString(w, "ready\n")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "not ready: %s\n", h.reason.Load())
}

// newHandler assembles the site handler, mounting the health probes, the
// archive query API (with SSE streaming when a hub is supplied), the
// stats-bearing expvar page, and the block cache when an archive reader is
// present.
func newHandler(site http.Handler, rd *tsdb.Reader, cacheBytes int64, hub *events.Broadcaster, hs *health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", hs.handleHealthz)
	mux.HandleFunc("GET /readyz", hs.handleReadyz)
	if rd != nil {
		cache := tsdb.NewBlockCache(cacheBytes)
		rd.SetBlockCache(cache)
		publishStats("tsdb_block_cache", func() any { return cache.Stats() })
		publishStats("tsdb_planner", func() any { return rd.PlannerStats() })
		publishStats("tsdb_grid", func() any { return rd.GridStats() })
		// tsdb_events: persisted event frames plus, in -live mode, the
		// broadcaster's subscriber count and published/dropped/per-type
		// fire totals.
		publishStats("tsdb_events", func() any {
			out := map[string]any{"frames": rd.EventFrames()}
			if hub != nil {
				out["broadcast"] = hub.Stats()
			}
			return out
		})
		mux.Handle("/api/v1/", tsdb.NewAPIHandlerWithStream(rd, hub))
		mux.Handle("/debug/vars", expvar.Handler())
	}
	mux.Handle("/", site)
	return mux
}

// published holds the latest getter behind each expvar name publishStats
// has registered.
var published = struct {
	sync.Mutex
	get map[string]func() any
}{get: make(map[string]func() any)}

// publishStats exposes get's result as the expvar name. Publish panics on
// duplicate names, so each name is published once through a stable Func
// that calls the latest getter; re-entry (tests call newHandler
// repeatedly) only rebinds it.
func publishStats(name string, get func() any) {
	published.Lock()
	defer published.Unlock()
	if _, ok := published.get[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			published.Lock()
			g := published.get[name]
			published.Unlock()
			return g()
		}))
	}
	published.get[name] = get
}

// runRefresher polls the live archive for new commits and head frames
// until ctx is cancelled. Refresh errors are logged and retried — a partially
// written checkpoint replacement can make a single poll fail benignly —
// except ErrArchiveReplaced, which is permanent: the file under the reader
// is no longer the archive it opened, so the refresher stops and the
// server keeps serving the last consistent state.
//
// Each adopted commit also republishes the archive's newly committed
// evolution events to hub, so /api/v1/stream subscribers follow the
// writer's detectors with one poll interval of lag. The first successful
// poll marks the server ready: the tail has observed the writer's latest
// commit at least once.
func runRefresher(ctx context.Context, rd *tsdb.Reader, every time.Duration, hub *events.Broadcaster, hs *health) {
	tk := time.NewTicker(every)
	defer tk.Stop()
	frontier := rd.EventFrames() // history is for /api/v1/events, not the stream
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
			changed, err := rd.Refresh()
			switch {
			case errors.Is(err, tsdb.ErrArchiveReplaced):
				log.Printf("live refresh: %v; freezing at version %d", err, rd.Version())
				return
			case err != nil:
				log.Printf("live refresh: %v", err)
				continue
			case changed && !rd.Live():
				// The writer closed the archive into its footered form;
				// nothing more will be committed.
				frontier = publishEvents(ctx, rd, hub, frontier)
				hs.markReady()
				log.Printf("live refresh: archive closed, serving its final state (%d blocks)",
					rd.Stats().Blocks)
				return
			case changed:
				frontier = publishEvents(ctx, rd, hub, frontier)
				log.Printf("live refresh: adopted commit version %d (%d blocks)",
					rd.Version(), rd.Stats().Blocks)
			}
			hs.markReady()
		}
	}
}

// publishEvents pushes the event frames committed past frontier into the
// broadcaster and returns the new frontier. Errors leave the frontier
// unmoved so the next poll retries the same span.
func publishEvents(ctx context.Context, rd *tsdb.Reader, hub *events.Broadcaster, frontier int) int {
	if hub == nil {
		return frontier
	}
	evs, n, err := rd.EventsSince(ctx, frontier)
	if err != nil {
		log.Printf("live events: %v", err)
		return frontier
	}
	for i := range evs {
		hub.Publish(evs[i])
	}
	return n
}

func run(addr, archive string, cacheBytes int64, start time.Time, step, tick time.Duration, live bool, refresh time.Duration, pprofAddr string) int {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		log.Print(err)
		return 1
	}
	site := collect.NewServer(sim, wmap.AllMaps())
	site.SetStatusFeed(status.FromScenario(sim.Scenario()))
	if err := site.SetTime(start); err != nil {
		log.Print(err)
		return 1
	}

	var rd *tsdb.Reader
	if archive != "" {
		var err error
		if rd, err = tsdb.OpenFile(archive); err != nil {
			log.Print(err)
			return 1
		}
		defer rd.Close()
	}
	var hub *events.Broadcaster
	if live {
		hub = events.NewBroadcaster()
		defer hub.Close()
	}
	hs := newHealth("live tail has not caught up with the writer yet")
	if !live {
		hs.markReady() // no tail to wait for: ready as soon as we serve
	}
	handler := newHandler(site, rd, cacheBytes, hub, hs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if live {
		go runRefresher(ctx, rd, refresh, hub, hs)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiling endpoint gets its own loopback-only listener — never
	// the public mux — mounted explicitly so nothing else riding the
	// default mux leaks onto it.
	var pprofSrv *http.Server
	if pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
		log.Printf("pprof on http://%s/debug/pprof/ (loopback only)", pprofAddr)
	}

	// The virtual clock and the listener each report on their own channel;
	// whichever fails first (or a shutdown signal) decides the exit path.
	tickErr := make(chan error, 1)
	go func() { tickErr <- runClock(ctx, site, start, step, tick) }()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	log.Printf("serving weather map on %s (virtual time from %s, %s per %s)",
		addr, start.Format(time.RFC3339), step, tick)
	display := addr
	if strings.HasPrefix(addr, ":") {
		display = "localhost" + addr
	}
	log.Printf("try: curl http://%s/map/europe.svg", display)
	log.Printf("     curl http://%s/status.json", display)
	if archive != "" {
		log.Printf("     curl http://%s/api/v1/maps", display)
		log.Printf("     curl http://%s/api/v1/stats   (block-cache counters; also expvar on /debug/vars)", display)
		log.Printf("archive block cache: %d MiB budget", cacheBytes>>20)
	}

	code := 0
	select {
	case <-ctx.Done():
		log.Print("signal received, shutting down")
	case err := <-tickErr:
		// runClock only returns non-nil on the consecutive-failure cap.
		log.Print(err)
		code = 1
	case err := <-serveErr:
		log.Print(err)
		return 1 // listener never started or died: nothing left to drain
	}

	// Graceful drain: stop accepting, let in-flight requests finish, bounded
	// by shutdownTimeout. stop() first so a second signal kills immediately.
	stop()
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if pprofSrv != nil {
		pprofSrv.Shutdown(sctx)
	}
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("shutdown: %v", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
		code = 1
	}
	return code
}

// runClock advances the virtual clock by step every tick until ctx is
// cancelled, returning nil. Transient SetTime failures are logged and reset
// on the next success; maxTickFailures consecutive failures abort the clock
// with the error instead of spinning. The ticker is stopped on every return
// path, so the goroutine leaks nothing.
func runClock(ctx context.Context, site *collect.Server, start time.Time, step, tick time.Duration) error {
	tk := time.NewTicker(tick)
	defer tk.Stop()
	t := start
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tk.C:
			t = t.Add(step)
			if err := site.SetTime(t); err != nil {
				fails++
				log.Printf("tick %s: %v", t.Format(time.RFC3339), err)
				if fails >= maxTickFailures {
					return fmt.Errorf("virtual clock: %d consecutive tick failures, giving up: %w", fails, err)
				}
				continue
			}
			fails = 0
		}
	}
}
