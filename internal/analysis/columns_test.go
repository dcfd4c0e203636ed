package analysis

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/wmap"
)

// columnize turns a snapshot corpus into the chunked columnar shape a tsdb
// grid scan yields: consecutive snapshots sharing a topology — the same
// links in the same order, by endpoints and labels — become chunks of at
// most chunkLen snapshots, the way an archive cuts a run into blocks.
func columnize(maps []*wmap.Map, chunkLen int) ColumnStream {
	return func(yield func(c *LinkColumns) error) error {
		for i := 0; i < len(maps); {
			j := i
			for j < len(maps) && j-i < chunkLen && sameLinkIdentity(maps[j].Links, maps[i].Links) {
				j++
			}
			run := maps[i:j]
			c := &LinkColumns{Links: make([]LinkCol, len(run[0].Links))}
			for li := range run[0].Links {
				c.Links[li].Link = run[0].Links[li]
				c.Links[li].AB = make([]wmap.Load, len(run))
				c.Links[li].BA = make([]wmap.Load, len(run))
			}
			for k, m := range run {
				c.Times = append(c.Times, m.Time)
				for li, l := range m.Links {
					c.Links[li].AB[k] = l.LoadAB
					c.Links[li].BA[k] = l.LoadBA
				}
			}
			if err := yield(c); err != nil {
				return err
			}
			i = j
		}
		return nil
	}
}

// chunkStream cuts maps into chunks of at most chunkLen snapshots up front
// (columnize), so a fold over the stream allocates nothing on the
// stream's behalf. With intern set, every chunk carries the topology of
// its links, one shared value per run of one skeleton, as tsdb.GridChunk
// carries the block's interned topology.
func chunkStream(tb testing.TB, maps []*wmap.Map, chunkLen int, intern bool) ColumnStream {
	tb.Helper()
	var chunks []*LinkColumns
	var topo *wmap.Topology
	if err := columnize(maps, chunkLen)(func(c *LinkColumns) error {
		if intern {
			links := &wmap.Map{}
			for i := range c.Links {
				links.Links = append(links.Links, c.Links[i].Link)
			}
			if !topo.Matches(links) {
				topo = links.Topology()
			}
			c.Topo = topo
		}
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return func(yield func(c *LinkColumns) error) error {
		for _, c := range chunks {
			if err := yield(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// sameLinkIdentity is columnize's chunk-split rule, kept independent of the
// package's own topology check so the tests do not grade it against itself.
func sameLinkIdentity(a, b []wmap.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if [4]string{a[i].A, a[i].B, a[i].LabelA, a[i].LabelB} != [4]string{b[i].A, b[i].B, b[i].LabelA, b[i].LabelB} {
			return false
		}
	}
	return true
}

// testCorpus builds a mixed corpus: internal parallels, external parallels,
// a singleton link, and a mid-corpus topology growth. One load in eight is
// 0 % or 1 %, so the imbalance filters have readings to drop.
func testCorpus(rng *rand.Rand, n int) []*wmap.Map {
	base := time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	var maps []*wmap.Map
	for i := 0; i < n; i++ {
		lo := func() wmap.Load {
			if rng.Intn(8) == 0 {
				return wmap.Load(rng.Intn(2))
			}
			return wmap.Load(rng.Intn(101))
		}
		m := &wmap.Map{
			ID:   wmap.Europe,
			Time: base.Add(time.Duration(i) * 3 * time.Hour),
			Nodes: []wmap.Node{
				{Name: "par-g1", Kind: wmap.Router},
				{Name: "fra-g1", Kind: wmap.Router},
				{Name: "AMS-IX", Kind: wmap.Peering},
			},
			Links: []wmap.Link{
				{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: lo(), LoadBA: lo()},
				{A: "par-g1", B: "fra-g1", LabelA: "#2", LabelB: "#2", LoadAB: lo(), LoadBA: lo()},
				{A: "par-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1", LoadAB: lo(), LoadBA: lo()},
				{A: "par-g1", B: "AMS-IX", LabelA: "#2", LabelB: "#2", LoadAB: lo(), LoadBA: lo()},
				{A: "fra-g1", B: "AMS-IX", LabelA: "#1", LabelB: "#1", LoadAB: lo(), LoadBA: lo()},
			},
		}
		if i >= n/2 {
			m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
			m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#1", LabelB: "#1", LoadAB: lo(), LoadBA: lo()})
		}
		maps = append(maps, m)
	}
	return maps
}

// topologyVariants derives corpora whose topology changes while the link
// count does not: for snapshots [n/4, 3n/8) one edit is applied, then the
// base topology returns. Each edit moves a load between directed sets or
// parallel ordinals, so a fold that keys its index on link count alone
// misreads it.
func topologyVariants(rng *rand.Rand, n int) map[string][]*wmap.Map {
	edits := map[string]func(m *wmap.Map){
		"base": func(*wmap.Map) {},
		"relabel": func(m *wmap.Map) {
			m.Links[1].LabelA = "#7"
		},
		"reorder": func(m *wmap.Map) {
			m.Links[0], m.Links[1] = m.Links[1], m.Links[0]
			m.Links[2], m.Links[4] = m.Links[4], m.Links[2]
		},
		"swap": func(m *wmap.Map) {
			l := &m.Links[2]
			l.A, l.B = l.B, l.A
			l.LabelA, l.LabelB = l.LabelB, l.LabelA
		},
	}
	out := make(map[string][]*wmap.Map, len(edits))
	for name, edit := range edits {
		maps := testCorpus(rng, n)
		for _, m := range maps[n/4 : 3*n/8] {
			edit(m)
		}
		out[name] = maps
	}
	return out
}

// testImbalanceOptions covers the paper's filters and the non-paper
// corners: no filter at all, and each filter alone.
func testImbalanceOptions() map[string]wmap.ImbalanceOptions {
	return map[string]wmap.ImbalanceOptions{
		"paper":     wmap.PaperImbalanceOptions(),
		"none":      {},
		"minlinks1": {MinLinks: 1},
		"zero":      {IgnoreZero: true, MinLinks: 1},
		"one":       {IgnoreOne: true, MinLinks: 3},
	}
}

// TestColumnsFoldEquivalence: the column folds must produce views deeply
// equal to the reference snapshot folds over the same corpus — the
// invariant that lets wmanalyze switch Figure 5 onto the grid scan.
func TestColumnsFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maps := testCorpus(rng, 120)
	stream := func(yield func(m *wmap.Map) error) error {
		for _, m := range maps {
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}

	wantImb, err := referenceImbalanceCDF(stream, wmap.PaperImbalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotImb, err := ImbalanceCDFColumns(columnize(maps, 16), wmap.PaperImbalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantImb, gotImb) {
		t.Errorf("imbalance views diverge:\nreference %+v\ncolumns   %+v", wantImb, gotImb)
	}
	if gotImb.IntSets == 0 || gotImb.ExtSets == 0 {
		t.Errorf("corpus too tame: %d internal, %d external sets", gotImb.IntSets, gotImb.ExtSets)
	}

	wantWk, err := referenceWeeklyLoads(stream)
	if err != nil {
		t.Fatal(err)
	}
	gotWk, err := WeeklyLoadsColumns(columnize(maps, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantWk, gotWk) {
		t.Errorf("weekly views diverge:\nreference %+v\ncolumns   %+v", wantWk, gotWk)
	}
	for d := 0; d < 7; d++ {
		if gotWk.Samples[d] == 0 {
			t.Errorf("weekday %d has no samples; corpus too short", d)
		}
	}
}

// TestColumnsFoldError: a failing source propagates.
func TestColumnsFoldError(t *testing.T) {
	boom := errors.New("boom")
	src := ColumnStream(func(func(*LinkColumns) error) error { return boom })
	if _, err := ImbalanceCDFColumns(src, wmap.PaperImbalanceOptions()); !errors.Is(err, boom) {
		t.Errorf("imbalance error = %v", err)
	}
	if _, err := WeeklyLoadsColumns(src); !errors.Is(err, boom) {
		t.Errorf("weekly error = %v", err)
	}
}

// TestColumnsFoldTopologyChanges: the imbalance column fold rebuilds its
// directed-set index whenever the topology changes — also when the link
// count stays put (a relabel, a reorder, an A<->B swap) — and reuses it
// across chunks of one topology, under every filter combination.
func TestColumnsFoldTopologyChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, maps := range topologyVariants(rng, 96) {
		for optName, opt := range testImbalanceOptions() {
			want, err := referenceImbalanceCDF(SliceStream(maps), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunkLen := range []int{1, 5, 16, len(maps)} {
				got, err := ImbalanceCDFColumns(columnize(maps, chunkLen), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s chunks of %d: views diverge:\nreference %+v\ncolumns   %+v", name, optName, chunkLen, want, got)
				}
			}
		}
	}
}

// TestColumnsFoldEmptyChunk: a chunk with no snapshots contributes nothing,
// and in particular does not replace the last snapshot's mean parallelism
// with its own topology's.
func TestColumnsFoldEmptyChunk(t *testing.T) {
	maps := testCorpus(rand.New(rand.NewSource(13)), 40)
	empty := &LinkColumns{Links: []LinkCol{{Link: wmap.Link{A: "x-g1", B: "y-g1", LabelA: "#1", LabelB: "#1"}}}}
	src := ColumnStream(func(yield func(c *LinkColumns) error) error {
		if err := yield(empty); err != nil {
			return err
		}
		return columnize(maps, 8)(func(c *LinkColumns) error {
			if err := yield(c); err != nil {
				return err
			}
			return yield(empty)
		})
	})
	for optName, opt := range testImbalanceOptions() {
		want, err := referenceImbalanceCDF(SliceStream(maps), opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ImbalanceCDFColumns(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: views diverge:\nreference %+v\ncolumns   %+v", optName, want, got)
		}
		if got.MeanParallelism != 1.5 {
			t.Errorf("%s: mean parallelism = %v, want the last snapshot's 1.5", optName, got.MeanParallelism)
		}
	}
}

// TestImbalanceColumnsCarriedTopo: chunks that carry their interned
// topology give the view of the same chunks without it, under every filter
// combination, and the fold then costs as many allocations over an 8-link
// map as over the full Europe map: it neither copies the links nor indexes
// them.
func TestImbalanceColumnsCarriedTopo(t *testing.T) {
	from := time.Date(2021, time.January, 4, 0, 0, 0, 0, time.UTC)
	var full []*wmap.Map
	if err := simStream(t, wmap.Europe, from, from.Add(63*5*time.Minute), 5*time.Minute)(func(m *wmap.Map) error {
		full = append(full, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The small map keeps four internal and four external links, so both
	// histograms fill as they do on the full one.
	var keep []int
	for _, internal := range []bool{true, false} {
		for i, n := 0, 0; i < len(full[0].Links) && n < 4; i++ {
			if full[0].Links[i].Internal() == internal {
				keep, n = append(keep, i), n+1
			}
		}
	}
	small := make([]*wmap.Map, len(full))
	for k, m := range full {
		small[k] = &wmap.Map{ID: m.ID, Time: m.Time}
		for _, i := range keep {
			small[k].Links = append(small[k].Links, m.Links[i])
		}
	}
	if len(full[0].Links) < 800 || len(small[0].Links) != 8 {
		t.Fatalf("maps of %d and %d links, want the full Europe map and 8", len(full[0].Links), len(small[0].Links))
	}

	allocs := map[string]float64{}
	for name, maps := range map[string][]*wmap.Map{"full": full, "small": small} {
		for optName, opt := range testImbalanceOptions() {
			want, err := ImbalanceCDFColumns(chunkStream(t, maps, 16, false), opt)
			if err != nil {
				t.Fatal(err)
			}
			src := chunkStream(t, maps, 16, true)
			got, err := ImbalanceCDFColumns(src, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: views diverge:\nwithout Topo %+v\nwith Topo    %+v", name, optName, want, got)
			}
			if optName != "minlinks1" {
				continue
			}
			if got.IntSets == 0 || got.ExtSets == 0 {
				t.Fatalf("%s: %d internal and %d external sets, want both", name, got.IntSets, got.ExtSets)
			}
			allocs[name] = testing.AllocsPerRun(10, func() {
				if _, err := ImbalanceCDFColumns(src, opt); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if allocs["full"] != allocs["small"] {
		t.Errorf("%v allocations over %d links, %v over 8", allocs["full"], len(full[0].Links), allocs["small"])
	}
}

// columnsOf keeps the LinkCol contract on map views: each one-snapshot
// chunk's Link is the snapshot's whole link, loads included, and its load
// columns hold the loads, also when consecutive views share one Topo and
// only the loads are rewritten.
func TestColumnsOfKeepsLinks(t *testing.T) {
	from := time.Date(2021, time.January, 4, 0, 0, 0, 0, time.UTC)
	var maps []*wmap.Map
	if err := simStream(t, wmap.Europe, from, from.Add(7*5*time.Minute), 5*time.Minute)(func(m *wmap.Map) error {
		maps = append(maps, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A second topology of the same link count, then the first again.
	edited := *maps[4]
	edited.Links = append([]wmap.Link(nil), maps[4].Links...)
	edited.Links[0].LabelA += "x"
	maps[4] = &edited
	k := 0
	err := columnsOf(viewStream(maps))(func(c *LinkColumns) error {
		m := maps[k]
		if len(c.Times) != 1 || !c.Times[0].Equal(m.Time) || len(c.Links) != len(m.Links) {
			t.Fatalf("snapshot %d: chunk of %d times, %d links", k, len(c.Times), len(c.Links))
		}
		for i, col := range c.Links {
			l := m.Links[i]
			if col.Link != l || len(col.AB) != 1 || len(col.BA) != 1 || col.AB[0] != l.LoadAB || col.BA[0] != l.LoadBA {
				t.Fatalf("snapshot %d link %d: %+v AB %v BA %v, want %+v", k, i, col.Link, col.AB, col.BA, l)
			}
		}
		k++
		return nil
	})
	if err != nil || k != len(maps) {
		t.Fatalf("folded %d of %d snapshots: %v", k, len(maps), err)
	}
}
