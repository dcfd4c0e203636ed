package dataset

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

func tempStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ts(min int) time.Time {
	return time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(min) * time.Minute)
}

func TestSnapshotPathLayout(t *testing.T) {
	s := tempStore(t)
	at := time.Date(2022, 3, 7, 14, 35, 0, 0, time.UTC)
	p := s.SnapshotPath(wmap.Europe, at, ExtSVG)
	want := filepath.Join(s.root, "europe", "2022", "03", "07", "1435.svg")
	if p != want {
		t.Errorf("path = %q, want %q", p, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := tempStore(t)
	at := ts(0)
	if err := s.WriteSnapshot(wmap.World, at, ExtSVG, []byte("<svg/>")); err != nil {
		t.Fatal(err)
	}
	data, err := s.ReadSnapshot(wmap.World, at, ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "<svg/>" {
		t.Errorf("data = %q", data)
	}
	if _, err := s.ReadSnapshot(wmap.World, ts(5), ExtSVG); err == nil {
		t.Error("missing snapshot should fail")
	}
}

func TestWriteSnapshotAtomicNoTempLeftover(t *testing.T) {
	s := tempStore(t)
	for i := 0; i < 5; i++ {
		if err := s.WriteSnapshot(wmap.Europe, ts(i*5), ExtSVG, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Base(path)[0] == '.' {
			t.Errorf("temp file leaked: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexSortedAndTyped(t *testing.T) {
	s := tempStore(t)
	times := []int{10, 0, 5}
	for _, m := range times {
		if err := s.WriteSnapshot(wmap.Europe, ts(m), ExtSVG, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	// A YAML file and a foreign file must not appear in the SVG index.
	if err := s.WriteSnapshot(wmap.Europe, ts(0), ExtYAML, []byte("y")); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(s.root, "europe", "README.svg"), []byte("not a snapshot"), 0o644)

	entries, err := s.Index(wmap.Europe, ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %+v", entries)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Time.Before(entries[i-1].Time) {
			t.Error("index not chronological")
		}
	}
	if entries[0].Size != 4 {
		t.Errorf("size = %d", entries[0].Size)
	}
}

func TestIndexMissingMap(t *testing.T) {
	s := tempStore(t)
	entries, err := s.Index(wmap.AsiaPacific, ExtSVG)
	if err != nil {
		t.Fatalf("missing map dir should not error: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestSummarize(t *testing.T) {
	s := tempStore(t)
	s.WriteSnapshot(wmap.Europe, ts(0), ExtSVG, bytes.Repeat([]byte("a"), 100))
	s.WriteSnapshot(wmap.Europe, ts(5), ExtSVG, bytes.Repeat([]byte("a"), 50))
	s.WriteSnapshot(wmap.Europe, ts(0), ExtYAML, bytes.Repeat([]byte("b"), 10))
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum[wmap.Europe][ExtSVG]; got.Files != 2 || got.Bytes != 150 {
		t.Errorf("svg summary = %+v", got)
	}
	if got := sum[wmap.Europe][ExtYAML]; got.Files != 1 || got.Bytes != 10 {
		t.Errorf("yaml summary = %+v", got)
	}
	if got := sum[wmap.World][ExtSVG]; got.Files != 0 {
		t.Errorf("world summary = %+v", got)
	}
}

func TestSummaryGiB(t *testing.T) {
	s := Summary{Bytes: 1 << 30}
	if s.GiB() != 1 {
		t.Errorf("GiB = %v", s.GiB())
	}
}

func TestCoverageSegmentsAndGaps(t *testing.T) {
	var times []time.Time
	for m := 0; m <= 60; m += 5 {
		times = append(times, ts(m))
	}
	// One big gap, then more snapshots.
	for m := 300; m <= 330; m += 5 {
		times = append(times, ts(m))
	}
	cov := CoverageOfTimes(wmap.Europe, times)
	if len(cov.Segments) != 2 {
		t.Fatalf("segments = %+v", cov.Segments)
	}
	if len(cov.Gaps) != 1 || cov.Gaps[0].To.Sub(cov.Gaps[0].From) != 240*time.Minute {
		t.Errorf("gaps = %+v", cov.Gaps)
	}
	if !cov.First.Equal(ts(0)) || !cov.Last.Equal(ts(330)) {
		t.Errorf("bounds = %s .. %s", cov.First, cov.Last)
	}
	if cov.Count != len(times) {
		t.Errorf("count = %d", cov.Count)
	}
}

func TestCoverageEmpty(t *testing.T) {
	cov := CoverageOfTimes(wmap.World, nil)
	if cov.Count != 0 || len(cov.Segments) != 0 {
		t.Errorf("empty coverage = %+v", cov)
	}
}

func TestIntervalDistribution(t *testing.T) {
	var times []time.Time
	for m := 0; m < 500; m += 5 { // 99 five-minute intervals
		times = append(times, ts(m))
	}
	times = append(times, ts(505)) // one ten-minute interval
	dist := IntervalsOfTimes(wmap.Europe, times)
	if dist.Intervals != 100 {
		t.Fatalf("intervals = %d", dist.Intervals)
	}
	if dist.AtNominal != 0.99 {
		t.Errorf("AtNominal = %v, want 0.99", dist.AtNominal)
	}
	if dist.WithinTen != 1.0 {
		t.Errorf("WithinTen = %v, want 1.0", dist.WithinTen)
	}
	if len(dist.CDF) == 0 || dist.CDF[len(dist.CDF)-1].Fraction != 1 {
		t.Errorf("CDF = %+v", dist.CDF)
	}
}

func TestProcessMapEndToEnd(t *testing.T) {
	s := tempStore(t)
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache := render.NewSceneCache(render.Options{})
	// Three healthy snapshots plus one malformed and one missing-routers.
	var maps []*wmap.Map
	for i := 0; i < 3; i++ {
		m, err := sim.MapAt(wmap.AsiaPacific, sc.Start.Add(time.Duration(i)*5*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
		var buf bytes.Buffer
		if err := cache.WriteSVGCached(&buf, m); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(wmap.AsiaPacific, m.Time, ExtSVG, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	scn, err := cache.Scene(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	if err := render.WriteFaultySVG(&bad, scn, maps[0], render.FaultMalformedAttribute); err != nil {
		t.Fatal(err)
	}
	s.WriteSnapshot(wmap.AsiaPacific, sc.Start.Add(15*time.Minute), ExtSVG, bad.Bytes())
	var noRouters bytes.Buffer
	if err := render.WriteFaultySVG(&noRouters, scn, maps[0], render.FaultMissingRouters); err != nil {
		t.Fatal(err)
	}
	s.WriteSnapshot(wmap.AsiaPacific, sc.Start.Add(20*time.Minute), ExtSVG, noRouters.Bytes())

	rep, err := s.ProcessMap(wmap.AsiaPacific, extract.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processed != 3 || rep.ScanFail != 1 || rep.AttrFail != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Total() != 5 || rep.Failed() != 2 {
		t.Errorf("totals: %d / %d", rep.Total(), rep.Failed())
	}

	// Idempotence: a second run treats existing YAMLs as processed and does
	// not double-count.
	rep2, err := s.ProcessMap(wmap.AsiaPacific, extract.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Processed != 3 || rep2.Failed() != 2 {
		t.Errorf("second run report = %+v", rep2)
	}

	// The processed YAML loads back to the simulated topology.
	back, err := s.LoadMap(wmap.AsiaPacific, maps[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Links) != len(maps[0].Links) || len(back.Nodes) != len(maps[0].Nodes) {
		t.Errorf("loaded %d nodes / %d links, want %d / %d",
			len(back.Nodes), len(back.Links), len(maps[0].Nodes), len(maps[0].Links))
	}

	// The walk sees the three processed snapshots in order.
	var seen []time.Time
	err = s.WalkMapsParallel(context.Background(), wmap.AsiaPacific, 1, func(m *wmap.Map) error {
		seen = append(seen, m.Time)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || !seen[0].Equal(maps[0].Time) {
		t.Errorf("walked = %v", seen)
	}
}

func TestProcessReportString(t *testing.T) {
	rep := ProcessReport{Map: wmap.Europe, Processed: 10, ScanFail: 1}
	if rep.String() == "" || rep.Total() != 11 {
		t.Errorf("report string/total broken: %q %d", rep.String(), rep.Total())
	}
}

func TestCoverageOfAndIntervalsOf(t *testing.T) {
	s := tempStore(t)
	for m := 0; m <= 20; m += 5 {
		if err := s.WriteSnapshot(wmap.Europe, ts(m), ExtSVG, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// One gap larger than the segmentation threshold.
	if err := s.WriteSnapshot(wmap.Europe, ts(120), ExtSVG, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cov, err := s.CoverageOf(wmap.Europe, ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Count != 6 || len(cov.Segments) != 2 {
		t.Errorf("coverage = %+v", cov)
	}
	dist, err := s.IntervalsOf(wmap.Europe, ExtSVG)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Intervals != 5 || dist.AtNominal != 0.8 {
		t.Errorf("intervals = %+v", dist)
	}
	times, err := s.Times(wmap.Europe, ExtSVG)
	if err != nil || len(times) != 6 {
		t.Errorf("Times = %v, %v", times, err)
	}
}

func TestOpenFailsOnFileCollision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("Open over a regular file should fail")
	}
}

func TestWalkMapsStopsOnCallbackError(t *testing.T) {
	s := tempStore(t)
	m := &wmap.Map{
		ID:    wmap.World,
		Time:  ts(0),
		Nodes: []wmap.Node{{Name: "a-r", Kind: wmap.Router}, {Name: "b-r", Kind: wmap.Router}},
		Links: []wmap.Link{{A: "a-r", B: "b-r", LabelA: "#1", LabelB: "#1"}},
	}
	for i := 0; i < 3; i++ {
		m.Time = ts(i * 5)
		data, err := extract.MarshalYAML(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(wmap.World, m.Time, ExtYAML, data); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := os.ErrClosed
	var seen int
	err := s.WalkMapsParallel(context.Background(), wmap.World, 1, func(*wmap.Map) error {
		seen++
		if seen == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || seen != 2 {
		t.Errorf("err = %v, seen = %d", err, seen)
	}
}

func TestWalkMapsCorruptYAML(t *testing.T) {
	s := tempStore(t)
	if err := s.WriteSnapshot(wmap.World, ts(0), ExtYAML, []byte("not: [valid")); err != nil {
		t.Fatal(err)
	}
	if err := s.WalkMapsParallel(context.Background(), wmap.World, 1, func(*wmap.Map) error { return nil }); err == nil {
		t.Error("corrupt YAML should abort the walk")
	}
}
