// Command wmbench is the repository benchmark: it generates a seeded
// workload in memory with netsim and render, drives the real entry points
// of extract, tsdb and analysis from one process, checks their outputs
// against the simulator's ground truth, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (run.sh builds the binary and passes -dir):
//
//	wmbench --workload ingest|dashboard|figures --seed N --seconds S --trace 0|1 --dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 traces half the ops,
// interleaved with untraced ones, and reports the per-layer metrics of the
// traced ones together with the tracing overhead. NOTES.md describes the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload after set-up.
type workload interface {
	// op runs one timed op, the unit a user waits for; every call into a
	// layer is wrapped in a tracer span.
	op(i int, tr *tracer) error
	// check validates op i's outputs outside the timed region and reports
	// whether it checked anything (some workloads check one op in N).
	check(i int) (bool, error)
	// minOps is the number of ops a run must complete so that its
	// deterministic counts are taken over the same prefix on every run.
	minOps() int
	// bytesPerSnapshot is archive bytes per appended map-snapshot.
	bytesPerSnapshot() float64
	// counters returns the workload's per-layer counters (see
	// counterUnits) after ops ops; absent ones are reported as 0.
	counters(ops int, layers map[string]*layerStats) map[string]float64
	// summary describes the run's inputs and deterministic outputs.
	summary() string
	// close releases files and removes the workload's directory.
	close() error
}

// setupTimes splits one set-up into its stages (wall time).
type setupTimes struct {
	inputs time.Duration // netsim generation, and SVG rendering where used
	build  time.Duration // archive writing
	tail   time.Duration // the part of build that appends with one Sync per snapshot
	open   time.Duration // reader open and handler construction
}

// sizes fixes every workload's input sizes; realSizes is what the command
// runs, and tests use smaller ones.
type sizes struct {
	setupReps  int // set-ups per run; setup_s is their median
	checkEvery int // ops between output checks (op 0 is always checked)

	poolTicks int // ingest: pre-rendered 5-minute ticks, spanning one topology change

	historyTicks int           // dashboard: batch-written snapshots
	tailTicks    int           // dashboard: live-written snapshots, one Sync each
	window       time.Duration // dashboard: grid and link-series window

	figSnapshots    int // figures: batch-written snapshots, centred on the topology change
	figBlockPoints  int // figures: snapshots per raw block
	figWindowBlocks int // figures: raw blocks per fold window
}

var realSizes = sizes{
	setupReps:       5,
	checkEvery:      25,
	poolTicks:       12,
	historyTicks:    300,
	tailTicks:       300,
	window:          24 * time.Hour,
	figSnapshots:    512,
	figBlockPoints:  16,
	figWindowBlocks: 4,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	sz       sizes
	log      io.Writer
}

type setupFunc func(cfg *config, dir string) (workload, setupTimes, error)

var workloads = map[string]setupFunc{
	"ingest":    newIngest,
	"dashboard": newDashboard,
	"figures":   newFigures,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest, dashboard or figures")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed-phase length in seconds of op time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced ops")
	dir := fs.String("dir", "", "directory for the run's archives (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *dir == "" || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "wmbench: need --workload ingest|dashboard|figures, --dir, --trace 0|1 and --seconds > 0")
		return 2
	}
	cfg := &config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, sz: realSizes, log: stderr}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "wmbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wmbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench sets the workload up cfg.sz.setupReps times, keeps the last set-up,
// runs the timed phase on it and assembles the result. setup_s is the
// median set-up CPU time: set-up writes archives with fsyncs to whatever
// device holds the checkout, and CPU time leaves out the waits for it. The
// wall time is reported per layer (setup.wall_s).
func bench(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "wmbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var (
		w            workload
		cpus, totals []time.Duration
		stages       [4][]time.Duration
	)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var st setupTimes
		w, st, err = workloads[cfg.workload](cfg, filepath.Join(root, fmt.Sprint("setup", rep)))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		totals = append(totals, time.Since(start))
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, cpu1-cpu0)
		for k, d := range []time.Duration{st.inputs, st.build, st.tail, st.open} {
			stages[k] = append(stages[k], d)
		}
	}

	// Peak RSS covers the ops only: set-up garbage is returned to the OS
	// before the first op, and so is the checks' garbage after each check on
	// the checkEvery schedule; the kernel's high-water mark is reset before
	// each op and read after it.
	runtime.GC()
	debug.FreeOSMemory()

	tr := newTracer()
	gc := []metrics.Sample{
		{Name: "/gc/cycles/automatic:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(gc)
	gc0 := [3]float64{float64(gc[0].Value.Uint64()), gc[1].Value.Float64(), gc[2].Value.Float64()}

	var (
		plain, traced []time.Duration // op latencies by tracing state
		plainAllocs   uint64
		busy          time.Duration
		failed        int
		checks        int
		peak          float64 // MiB
	)
	for i := 0; i < w.minOps() || busy.Seconds() < cfg.seconds; i++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		// A traced run traces half the ops, interleaved with untraced ones,
		// so the tracing overhead is measured on ops of the same composition.
		// The Thue–Morse order (odd popcount) keeps both halves unaligned
		// with any workload's rotation period, such as the ingest pool's.
		tr.on, tr.op = cfg.trace && bits.OnesCount(uint(i))%2 == 1, int32(i)
		a0 := tr.heapObjects()
		start := time.Now()
		root := tr.begin(rootSpan)
		err := w.op(i, tr)
		tr.end(root)
		d := time.Since(start)
		a1 := tr.heapObjects()
		busy += d
		if tr.on {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
			plainAllocs += a1 - a0
		}
		tr.on = false
		rss, rerr := peakRSSMiB()
		if rerr != nil {
			return nil, rerr
		}
		peak = max(peak, rss)
		if err == nil {
			var checked bool
			checked, err = w.check(i)
			if checked {
				checks++
			}
		}
		if i%cfg.sz.checkEvery == 0 {
			runtime.GC()
			debug.FreeOSMemory()
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(cfg.log, "wmbench: op %d: %v\n", i, err)
			}
		}
	}
	ops := len(plain) + len(traced)
	metrics.Read(gc)

	m := metricSet{}
	if !cfg.trace {
		m.set("setup_s", "s", median(cpus).Seconds())
		m.set("ops_per_s", "1/s", float64(len(plain))/sum(plain).Seconds())
		m.set("op_p50_ms", "ms", ms(quantile(plain, 0.5)))
		m.set("op_p90_ms", "ms", ms(quantile(plain, 0.9)))
		m.set("peak_rss_mib", "MiB", peak)
		m.set("bytes_per_snapshot", "B", w.bytesPerSnapshot())
		m.set("allocs_per_op", "count", float64(plainAllocs)/float64(len(plain)))
	} else {
		layers, opWall, coverage := tr.report()
		spans := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "wmbench: %d spans written to %s\n", len(tr.spans), spans)
		n := float64(len(traced))
		for _, name := range spanNames {
			ls := layers[name]
			if ls == nil {
				ls = &layerStats{}
			}
			m.set(name+".calls", "1/op", float64(ls.calls)/n)
			m.set(name+".self_s", "s/op", ls.self.Seconds()/n)
			m.set(name+".p50_ms", "ms", ms(quantile(ls.durs, 0.5)))
			m.set(name+".allocs_per_call", "count", float64(ls.allocs)/float64(max(ls.calls, 1)))
		}
		c := w.counters(ops, layers)
		for _, cu := range counterUnits {
			m.set(cu.name, cu.unit, c[cu.name])
		}
		m.set("runtime.gc_cycles", "1/op", (float64(gc[0].Value.Uint64())-gc0[0])/float64(ops))
		gcFrac := 0.0
		if cpu := gc[2].Value.Float64() - gc0[2]; cpu > 0 {
			gcFrac = (gc[1].Value.Float64() - gc0[1]) / cpu
		}
		m.set("runtime.gc_cpu_fraction", "ratio", gcFrac)
		m.set("setup.render_s", "s", median(stages[0]).Seconds())
		m.set("setup.build_s", "s", median(stages[1]).Seconds())
		m.set("setup.tail_s", "s", median(stages[2]).Seconds())
		m.set("setup.open_s", "s", median(stages[3]).Seconds())
		m.set("setup.wall_s", "s", median(totals).Seconds())
		untracedRate := float64(len(plain)) / sum(plain).Seconds()
		tracedRate := n / opWall.Seconds()
		m.set("bench.untraced_ops_per_s", "1/s", untracedRate)
		m.set("bench.traced_ops_per_s", "1/s", tracedRate)
		m.set("bench.trace_overhead", "ratio", (untracedRate-tracedRate)/untracedRate)
		m.set("bench.span_coverage", "ratio", coverage)
	}
	fmt.Fprintf(cfg.log, "wmbench: %s seed %d: %d ops (%d traced), %d checked, %d failed, %.2fs op time\n",
		cfg.workload, cfg.seed, ops, len(traced), checks, failed, busy.Seconds())
	fmt.Fprintf(cfg.log, "wmbench: %s: %s\n", cfg.workload, w.summary())
	if checks == 0 {
		return nil, errors.New("no op was checked")
	}
	return &result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// spanNames lists every layer span, in the order the per-layer report
// prints them; each workload exercises its own subset.
var spanNames = []string{
	// ingest
	"extract.scan", "extract.attribute", "tsdb.append", "tsdb.sync", "tsdb.refresh",
	// dashboard
	"tsdb.api.grid", "tsdb.api.link_raw", "tsdb.api.link_step", "tsdb.api.topology", "tsdb.api.events",
	// figures
	"tsdb.cursor.next", "tsdb.gridcolumns",
	"analysis.hourly", "analysis.loadcdf", "analysis.congestion", "analysis.imbalance", "analysis.weekly",
}

// counterUnits lists the per-layer counters a workload may report, with
// their units. Rates over the timed phase are per op.
var counterUnits = []struct{ name, unit string }{
	{"svg.scan_mb_per_s", "MB/s"},          // SVG bytes scanned per second of extract.scan self time
	{"extract.cache_hit_ratio", "ratio"},   // attribution-cache hits per Attribute call, first two pool wraps
	{"extract.cache_misses", "count"},      // Algorithm 2 runs, first two pool wraps
	{"tsdb.blocks_written", "count"},       // raw, rollup and event frames, first two pool wraps
	{"tsdb.bytes_written", "B"},            // archive growth, first two pool wraps
	{"tsdb.api.response_bytes", "B"},       // response bytes per view
	{"tsdb.planner.rollup_share", "ratio"}, // stepped link series served from a rollup tier
	{"tsdb.blockcache.hit_ratio", "ratio"}, // decoded-block cache hits per lookup
	{"tsdb.blockcache.evictions", "1/op"},  // decoded blocks evicted per op
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func median(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else if n > 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return 0
}

// cpuTime is the CPU time, user and system, the process has used so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS sets the kernel's record of the process's peak resident set
// (VmHWM) to its current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is the process's peak resident set since resetPeakRSS.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
