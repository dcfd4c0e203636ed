package events

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// netsimWindow returns n consecutive 5-minute snapshots of map id from
// start.
func netsimWindow(tb testing.TB, sim *netsim.Simulator, id wmap.MapID, start time.Time, n int) []*wmap.Map {
	tb.Helper()
	ms := make([]*wmap.Map, 0, n)
	for i := 0; i < n; i++ {
		m, err := sim.MapAt(id, start.Add(time.Duration(i)*5*time.Minute))
		if err != nil {
			tb.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// diffDetectors feeds the stream to a Detector and a referenceDetector
// and fails at the first snapshot where their results differ. It returns
// every emission.
func diffDetectors(t testing.TB, id wmap.MapID, cfg Config, db *peeringdb.DB, stream []*wmap.Map) []Emitted {
	t.Helper()
	det, ref := NewDetector(id, cfg, db), newReferenceDetector(id, cfg, db)
	var all []Emitted
	for i, m := range stream {
		got, want := det.Observe(m), ref.Observe(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s snapshot %d (%s): detector and reference differ\n got  %+v\n want %+v",
				id, i, m.Time.Format(time.RFC3339), got, want)
		}
		all = append(all, got...)
	}
	return all
}

// busyConfig lowers every threshold so that netsim's ordinary loads
// exercise the congestion, drain and churn paths densely.
func busyConfig() Config {
	return Config{
		ChurnDebounce: 0,
		CongestionOn:  30,
		CongestionOff: 20,
		DrainHigh:     4,
		DrainLow:      3,
		DBWindow:      7 * 24 * time.Hour,
	}
}

// TestDetectorMatchesReference holds the plan-based Detector to the
// reference detector, result for result, on netsim streams of all four
// maps across topology changes, and on a stream that reorders links
// without changing their multiset.
func TestDetectorMatchesReference(t *testing.T) {
	sc := netsim.DefaultScenario()
	db := peeringdb.New()
	if err := db.Announce(peeringdb.Record{Peering: sc.Upgrade.Peering, Network: "OVH",
		Gbps: sc.Upgrade.GbpsAfter, Updated: sc.Upgrade.DBUpdated}); err != nil {
		t.Fatal(err)
	}
	windows := []struct {
		name  string
		start time.Time
	}{
		{"october-2020-decommission", time.Date(2020, 10, 1, 23, 0, 0, 0, time.UTC)},
		{"europe-change-2020-11-03", time.Date(2020, 11, 2, 23, 0, 0, 0, time.UTC)},
		{"ams-ix-upgrade-2022-03-03", time.Date(2022, 3, 2, 23, 30, 0, 0, time.UTC)},
	}
	counts := make(map[Type]int)
	for _, w := range windows {
		sim, err := netsim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range wmap.AllMaps() {
			stream := netsimWindow(t, sim, id, w.start, 30)
			for _, cfg := range []Config{DefaultConfig(), busyConfig()} {
				t.Run(fmt.Sprintf("%s/%s/debounce=%s", w.name, id, cfg.ChurnDebounce), func(t *testing.T) {
					for _, e := range diffDetectors(t, id, cfg, db, stream) {
						counts[e.Type]++
					}
				})
			}
		}
	}

	// Reordered links: every third snapshot lists the links rotated by
	// one, the others in netsim order, so ordinals and group member
	// orders move while the churn diff stays empty. netsim's loads move
	// too smoothly to drain, so the first parallel pair also drains its
	// first member into its second on snapshots 10 to 14.
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	stream := netsimWindow(t, sim, wmap.Europe, time.Date(2020, 11, 3, 6, 0, 0, 0, time.UTC), 30)
	x, y := parallelPair(t, stream[0])
	for i, m := range stream {
		if i >= 10 && i < 15 {
			if m.Links[y].LoadAB += m.Links[x].LoadAB; m.Links[y].LoadAB > 100 {
				m.Links[y].LoadAB = 100
			}
			m.Links[x].LoadAB = 0
		}
		if i%3 == 2 {
			m.Links = append(m.Links[1:len(m.Links):len(m.Links)], m.Links[0])
		}
	}
	t.Run("europe-reordered", func(t *testing.T) {
		for _, e := range diffDetectors(t, wmap.Europe, busyConfig(), nil, stream) {
			counts[e.Type]++
		}
	})

	for _, ty := range types() {
		if counts[ty] == 0 {
			t.Errorf("no %s events across the streams; the corpus does not exercise that detector", ty)
		}
	}
	t.Logf("events per type: %v", counts)
}

// parallelPair returns the indexes of the first two links of m between
// the same endpoints in the same orientation.
func parallelPair(t testing.TB, m *wmap.Map) (int, int) {
	first := make(map[[2]string]int)
	for i, l := range m.Links {
		if j, ok := first[[2]string{l.A, l.B}]; ok {
			return j, i
		}
		first[[2]string{l.A, l.B}] = i
	}
	t.Fatal("no parallel links")
	return 0, 0
}

// fuzzNames is the node-name pool of FuzzDetectorDifferential: routers
// are lower case, peerings upper case.
var fuzzNames = []string{"par-g1", "fra-g1", "AMS-IX", "waw-g1", "LINX", "lon-g1"}

var fuzzLabels = []string{"#1", "#2", "#p"}

// fuzzLoads sit on and around the thresholds of DefaultConfig: the drain
// bounds 2 and 10, and the congestion band 45 to 60.
var fuzzLoads = []wmap.Load{0, 1, 2, 3, 9, 10, 11, 30, 44, 45, 46, 59, 60, 61, 100}

// fuzzBase is the map every FuzzDetectorDifferential program starts from.
func fuzzBase() *wmap.Map {
	return &wmap.Map{
		ID:   wmap.Europe,
		Time: base,
		Nodes: []wmap.Node{
			{Name: "par-g1", Kind: wmap.Router},
			{Name: "fra-g1", Kind: wmap.Router},
			{Name: "AMS-IX", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: 20, LoadBA: 20},
			{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: 20, LoadBA: 20},
			{A: "par-g1", B: "AMS-IX", LabelA: "#p", LabelB: "#p", LoadAB: 12, LoadBA: 5},
			{A: "fra-g1", B: "AMS-IX", LabelA: "#p", LabelB: "#p", LoadAB: 12, LoadBA: 5},
		},
	}
}

// runProgram interprets prog as two-byte instructions editing a map and
// returns the snapshot taken after each instruction. Every snapshot is a
// fresh copy five minutes after the previous one.
func runProgram(prog []byte) []*wmap.Map {
	m := fuzzBase()
	out := []*wmap.Map{m.Clone()}
	for i := 0; i+1 < len(prog) && len(out) < 64; i += 2 {
		op, arg := prog[i]%9, int(prog[i+1])
		switch op {
		case 0: // add a node, linked to an existing one
			name := fuzzNames[arg%len(fuzzNames)]
			m.Nodes = append(m.Nodes, wmap.Node{Name: name, Kind: wmap.KindOfName(name)})
			if len(m.Nodes) > 1 {
				peer := m.Nodes[(arg/len(fuzzNames))%(len(m.Nodes)-1)].Name
				m.Links = append(m.Links, wmap.Link{A: peer, B: name, LabelA: "#1", LabelB: "#1"})
			}
		case 1: // remove a node and its links
			if len(m.Nodes) > 0 {
				k := arg % len(m.Nodes)
				name := m.Nodes[k].Name
				m.Nodes = append(m.Nodes[:k], m.Nodes[k+1:]...)
				links := m.Links[:0]
				for _, l := range m.Links {
					if l.A != name && l.B != name {
						links = append(links, l)
					}
				}
				m.Links = links
			}
		case 2: // add a parallel of an existing link
			if len(m.Links) > 0 {
				l := m.Links[arg%len(m.Links)]
				l.LoadAB, l.LoadBA = 0, 0
				m.Links = append(m.Links, l)
			}
		case 3: // remove a link
			if len(m.Links) > 0 {
				k := arg % len(m.Links)
				m.Links = append(m.Links[:k], m.Links[k+1:]...)
			}
		case 4: // flip a node's kind
			if len(m.Nodes) > 0 {
				n := &m.Nodes[arg%len(m.Nodes)]
				if n.Kind == wmap.Router {
					n.Kind = wmap.Peering
				} else {
					n.Kind = wmap.Router
				}
			}
		case 5: // relabel one end of a link
			if len(m.Links) > 0 {
				l := &m.Links[(arg/2)%len(m.Links)]
				if arg%2 == 0 {
					l.LabelA = fuzzLabels[(arg/8)%len(fuzzLabels)]
				} else {
					l.LabelB = fuzzLabels[(arg/8)%len(fuzzLabels)]
				}
			}
		case 6: // reorder: swap two links, or two nodes
			if arg%2 == 0 && len(m.Links) > 1 {
				a, b := (arg/2)%len(m.Links), (arg/16)%len(m.Links)
				m.Links[a], m.Links[b] = m.Links[b], m.Links[a]
			} else if len(m.Nodes) > 1 {
				a, b := (arg/2)%len(m.Nodes), (arg/16)%len(m.Nodes)
				m.Nodes[a], m.Nodes[b] = m.Nodes[b], m.Nodes[a]
			}
		case 7: // set one direction's load
			if len(m.Links) > 0 {
				l := &m.Links[(arg/2)%len(m.Links)]
				load := fuzzLoads[(arg/4)%len(fuzzLoads)]
				if arg%2 == 0 {
					l.LoadAB = load
				} else {
					l.LoadBA = load
				}
			}
		case 8: // set every load from a pattern
			for k := range m.Links {
				m.Links[k].LoadAB = fuzzLoads[(arg+3*k)%len(fuzzLoads)]
				m.Links[k].LoadBA = fuzzLoads[(arg/3+5*k)%len(fuzzLoads)]
			}
		}
		m.Time = m.Time.Add(5 * time.Minute)
		out = append(out, m.Clone())
	}
	return out
}

// FuzzDetectorDifferential runs byte programs of topology and load edits
// over a small map and requires the Detector and the reference detector
// to agree on every snapshot.
func FuzzDetectorDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0x15, 7, 0x0d, 8, 1, 8, 200})                       // loads only
	f.Add([]byte{0, 3, 7, 9, 7, 9, 7, 9, 1, 3, 7, 9, 7, 9})             // a node comes and goes
	f.Add([]byte{2, 2, 8, 40, 8, 7, 3, 2, 8, 40, 6, 2, 6, 35})          // a parallel, then reorders
	f.Add([]byte{8, 30, 7, 0x2c, 7, 0x20, 5, 1, 5, 9, 4, 2, 4, 2})      // drains, relabels, kind flips
	f.Add([]byte{8, 60, 2, 0, 8, 61, 6, 0x12, 8, 60, 0, 4, 0, 4, 8, 9}) // duplicate nodes
	f.Fuzz(func(t *testing.T, prog []byte) {
		stream := runProgram(prog)
		for _, debounce := range []time.Duration{0, 10 * time.Minute} {
			cfg := DefaultConfig()
			cfg.ChurnDebounce = debounce
			diffDetectors(t, wmap.Europe, cfg, nil, stream)
		}
	})
}

// TestDetectorSteadyAllocs requires a snapshot whose topology the
// detector already holds, and which emits nothing, to cost no
// allocation.
func TestDetectorSteadyAllocs(t *testing.T) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	ms := netsimWindow(t, sim, wmap.Europe, time.Date(2020, 11, 4, 3, 0, 0, 0, time.UTC), 2)
	if !wmap.SameSkeleton(ms[1], ms[0]) {
		t.Fatal("window spans a topology change")
	}
	d := NewDetector(wmap.Europe, DefaultConfig(), nil)
	for _, m := range ms {
		d.Observe(m)
	}
	i, emitted := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		emitted += len(d.Observe(ms[i%2]))
	})
	if emitted != 0 {
		t.Fatalf("steady window emitted %d events; pick a quieter one", emitted)
	}
	if allocs != 0 {
		t.Fatalf("steady Observe: %v allocs per snapshot, want 0", allocs)
	}
}

// BenchmarkDetectorObserve times Observe over a steady netsim Europe
// window, the write path's per-snapshot detection cost between topology
// changes. Before timing it checks that the window emits what the
// reference detector emits, and that this is not nothing.
func BenchmarkDetectorObserve(b *testing.B) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		b.Fatal(err)
	}
	window := netsimWindow(b, sim, wmap.Europe, time.Date(2020, 11, 4, 6, 0, 0, 0, time.UTC), 48)
	for _, m := range window[1:] {
		if !wmap.SameSkeleton(m, window[0]) {
			b.Fatal("window spans a topology change")
		}
	}
	if evs := diffDetectors(b, wmap.Europe, DefaultConfig(), nil, window); len(evs) == 0 {
		b.Fatal("window emits no events; the benchmark would not exercise emission")
	}
	d := NewDetector(wmap.Europe, DefaultConfig(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(window[i%len(window)])
	}
}
