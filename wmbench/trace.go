package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one call into a layer, timed by the benchmark around the call.
// parent indexes the enclosing span (-1 for an op root); op is the id of
// the op the span belongs to.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32
	op         int32
	allocs     uint64 // heap objects allocated while the span was open
}

// tracer records spans in memory from the benchmark's goroutine; the
// per-layer report is computed once the run ends. A tracer that is off
// records nothing, so untraced ops pay one branch per layer call.
type tracer struct {
	on     bool
	epoch  time.Time
	op     int32
	spans  []span
	stack  []int32
	sample []metrics.Sample
}

// rootSpan names the span around a whole op; every other span is a layer.
const rootSpan = "op"

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// heapObjects is the process's cumulative count of allocated heap objects.
func (t *tracer) heapObjects() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span named name under the innermost open span and returns
// its handle for end; -1 when tracing is off. The allocation counter is
// read before the clock starts, so its cost falls outside the span.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, allocs: t.heapObjects()})
	t.stack = append(t.stack, int32(i))
	t.spans[i].start = time.Since(t.epoch)
	return i
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	e := time.Since(t.epoch)
	s := &t.spans[i]
	s.end = e
	s.allocs = t.heapObjects() - s.allocs
	t.stack = t.stack[:len(t.stack)-1]
}

// write saves every recorded span to path, one JSON object per line, with
// times in nanoseconds since the tracer started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "{\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"allocs\":%d}\n",
			s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds(), s.allocs)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats is the per-layer report of one span name.
type layerStats struct {
	calls  int
	self   time.Duration
	allocs uint64 // self allocations
	durs   []time.Duration
}

// report folds the recorded spans into per-name statistics. A span's self
// time is its duration minus its children's durations (children never
// overlap: every span is recorded on one goroutine); self allocations
// likewise. It also returns the traced ops' total wall time and the share
// of it that layer self times cover.
func (t *tracer) report() (layers map[string]*layerStats, opWall time.Duration, coverage float64) {
	childDur := make([]time.Duration, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAllocs[s.parent] += s.allocs
		}
	}
	layers = make(map[string]*layerStats)
	var covered time.Duration
	for i, s := range t.spans {
		d := s.end - s.start
		if s.name == rootSpan {
			opWall += d
			continue
		}
		ls := layers[s.name]
		if ls == nil {
			ls = &layerStats{}
			layers[s.name] = ls
		}
		self := d - childDur[i]
		ls.calls++
		ls.self += self
		ls.allocs += s.allocs - min(s.allocs, childAllocs[i])
		ls.durs = append(ls.durs, d)
		covered += self
	}
	if opWall > 0 {
		coverage = float64(covered) / float64(opWall)
	}
	return layers, opWall, coverage
}

// quantile returns the nearest-rank q-quantile of ds, sorting ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(k, len(ds)-1))]
}
