package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/dataset"
	"ovhweather/internal/events"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// TestArchiveEquivalence proves the columnar archive is a faithful stand-in
// for the YAML corpus: render the 4-map corpus, build one archive through
// the processing pipeline's Emit hook (the wmparse -archive path) and one
// from the on-disk YAMLs (a WalkMapsParallel per map), and require
//
//   - the two archives are byte-identical (the writer is deterministic and
//     both sources deliver the same series),
//   - every snapshot read back through a Cursor equals its YAML counterpart
//     structurally,
//   - the paper's analyses produce byte-identical rendered output from
//     either source, and
//   - the archive is at least 5x smaller than the YAML corpus.
func TestArchiveEquivalence(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := render.NewSceneCache(render.Options{})

	// Render: 6 hours at 5-minute steps, all maps; one Europe hour across
	// the 2020-10-02 decommission, so that the churn, site growth and path
	// figures have a topology change to report; and one corrupted Europe
	// file the pipeline must reject without emitting.
	steps := map[wmap.MapID]int{}
	renderWindow := func(ids []wmap.MapID, from time.Time, d time.Duration) {
		for at := from; at.Before(from.Add(d)); at = at.Add(5 * time.Minute) {
			for _, id := range ids {
				m, err := sim.MapAt(id, at)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := cache.WriteSVGCached(&sb, m); err != nil {
					t.Fatal(err)
				}
				if err := store.WriteSnapshot(id, at, dataset.ExtSVG, []byte(sb.String())); err != nil {
					t.Fatal(err)
				}
				steps[id]++
			}
		}
	}
	from := sc.Start.AddDate(0, 2, 0)
	renderWindow(wmap.AllMaps(), from, 6*time.Hour)
	renderWindow([]wmap.MapID{wmap.Europe}, time.Date(2020, time.October, 1, 23, 30, 0, 0, time.UTC), time.Hour)
	badAt := from.Add(6 * time.Hour)
	{
		m, err := sim.MapAt(wmap.Europe, badAt)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := cache.Scene(m)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := render.WriteFaultySVG(&sb, scn, m, render.FaultMalformedAttribute); err != nil {
			t.Fatal(err)
		}
		if err := store.WriteSnapshot(wmap.Europe, badAt, dataset.ExtSVG, []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}

	// Path A: process with the Emit hook feeding a writer, as wmparse
	// -archive does.
	var bufA bytes.Buffer
	wA := tsdb.NewWriter(&bufA)
	for _, id := range wmap.AllMaps() {
		rep, err := store.ProcessMapParallel(context.Background(), id, dataset.ProcessOptions{
			Workers: 4,
			Extract: extract.DefaultOptions(),
			Emit:    wA.Append,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Processed != steps[id] {
			t.Fatalf("%s: processed = %d, want %d", id, rep.Processed, steps[id])
		}
	}
	if err := wA.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range steps {
		total += n
	}
	if got := wA.Stats().Snapshots; got != total {
		t.Fatalf("archive snapshots = %d, want %d (the corrupted file must not be emitted)", got, total)
	}

	// Path B: re-archive the on-disk YAML corpus.
	var bufB bytes.Buffer
	wB := tsdb.NewWriter(&bufB)
	for _, id := range wmap.AllMaps() {
		if err := store.WalkMapsParallel(context.Background(), id, 4, wB.Append); err != nil {
			t.Fatal(err)
		}
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("Emit-built and YAML-walk-built archives differ: %d vs %d bytes",
			bufA.Len(), bufB.Len())
	}

	rd, err := tsdb.NewReader(bytes.NewReader(bufA.Bytes()), int64(bufA.Len()))
	if err != nil {
		t.Fatal(err)
	}

	// Every snapshot read back through a Cursor must equal its YAML
	// counterpart structurally.
	for _, id := range wmap.AllMaps() {
		var fromYAML []*wmap.Map
		if err := store.WalkMapsParallel(context.Background(), id, 1, func(m *wmap.Map) error {
			fromYAML = append(fromYAML, m)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		cur := rd.CursorParallel(context.Background(), id, time.Time{}, time.Time{}, 1)
		i := 0
		for cur.Next() {
			if i >= len(fromYAML) {
				t.Fatalf("%s: archive yields more than %d snapshots", id, len(fromYAML))
			}
			got, want := cur.MapView().Clone(), fromYAML[i]
			if got.ID != want.ID || !got.Time.Equal(want.Time) {
				t.Fatalf("%s[%d]: identity %s@%s, want %s@%s",
					id, i, got.ID, got.Time, want.ID, want.Time)
			}
			if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Links, want.Links) {
				t.Fatalf("%s[%d]: topology or loads diverge from the YAML snapshot", id, i)
			}
			i++
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(fromYAML) {
			t.Fatalf("%s: archive yields %d snapshots, YAML walk %d", id, i, len(fromYAML))
		}
	}

	// The analyses must render byte-identical output from either source.
	yamlStream := func(yield func(*wmap.Map) error) error {
		return store.WalkMapsParallel(context.Background(), wmap.Europe, 4, yield)
	}
	tsdbStream := func(yield func(*wmap.Map) error) error {
		cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
		for cur.Next() {
			if err := yield(cur.MapView().Clone()); err != nil {
				return err
			}
		}
		return cur.Err()
	}
	// The serving-path variant: parallel read-ahead decode over a shared
	// decoded-block cache, yielding the allocation-free scratch view. Must
	// be indistinguishable from the one-worker cursor — same snapshots,
	// same order, byte-identical analyses.
	cachedRd, err := tsdb.NewReader(bytes.NewReader(bufA.Bytes()), int64(bufA.Len()))
	if err != nil {
		t.Fatal(err)
	}
	cachedRd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
	tsdbParallelStream := func(yield func(*wmap.Map) error) error {
		cur := cachedRd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 4)
		defer cur.Close()
		for cur.Next() {
			if err := yield(cur.MapView()); err != nil {
				return err
			}
		}
		return cur.Err()
	}
	want := renderAnalyses(t, yamlStream)
	if !strings.Contains(want, "2020-10-01 -> 2020-10-02") || strings.Contains(want, "no site-level changes") {
		t.Fatalf("the YAML figures show no decommission, so comparing them proves nothing:\n%s", want)
	}
	if got := renderAnalyses(t, tsdbStream); got != want {
		t.Errorf("analysis output diverges between tsdb and YAML paths:\n--- tsdb ---\n%s\n--- yaml ---\n%s", got, want)
	}
	// Twice through the parallel cached stream: the first pass fills the
	// cache, the second serves from it — both must render identically.
	for pass := 1; pass <= 2; pass++ {
		if got := renderAnalyses(t, tsdbParallelStream); got != want {
			t.Errorf("parallel cached cursor (pass %d) diverges from the YAML analyses:\n--- parallel ---\n%s\n--- yaml ---\n%s", pass, got, want)
		}
	}
	if s := cachedRd.BlockCache().Stats(); s.Hits == 0 {
		t.Errorf("second parallel pass recorded no cache hits: %+v", s)
	}

	// Size: the columnar archive must be at least 5x smaller than the YAML
	// corpus it replaces.
	sum, err := store.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	var yamlBytes int64
	for _, id := range wmap.AllMaps() {
		yamlBytes += sum[id][dataset.ExtYAML].Bytes
	}
	if int64(bufA.Len())*5 > yamlBytes {
		t.Errorf("archive = %d bytes, YAML corpus = %d bytes: want >= 5x smaller", bufA.Len(), yamlBytes)
	}
}

// renderAnalyses runs the paper's Europe analyses over a snapshot stream
// and returns the rendered figures — the byte string the equivalence tests
// compare across ingest paths.
func renderAnalyses(t *testing.T, stream analysis.Stream) string {
	t.Helper()
	var sb strings.Builder
	loads, err := analysis.LoadCDF(stream)
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteLoadCDF(&sb, loads)
	imb, err := analysis.ImbalanceCDF(stream, wmap.PaperImbalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteImbalance(&sb, imb)
	infra, err := analysis.Infrastructure(stream)
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteInfraSeries(&sb, infra, time.Hour)
	// The studies that fold through the shared event-detector primitives
	// (events.ChurnTracker, wmap.Topology, UpgradeTracker): their figures
	// must stay byte-identical across every ingest path.
	sb.WriteString(renderTopologyStudies(t, stream))
	cong, err := analysis.CongestionStudy(stream, analysis.DefaultCongestionOptions())
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteCongestion(&sb, cong)
	upg, err := analysis.UpgradeStudy(stream, "AMS-IX", nil)
	if err == nil {
		analysis.WriteUpgrade(&sb, upg)
	}
	return sb.String()
}

// TestLiveArchiveEquivalence proves follow mode costs nothing in output
// fidelity: snapshots landing in a dataset directory in stages, ingested by
// catch-up passes into an OpenAppend archive with a durable commit per
// stage (the wmparse -follow loop), must close into an archive
// byte-identical to the batch build of the same corpus — and the paper's
// figures rendered from it must be byte-identical to the YAML-stream
// figures. Along the way a live reader tails the archive over the query
// API, asserting each commit rolls the advertised fingerprint: a stale
// If-None-Match re-fetches with 200, the current one revalidates with 304.
func TestLiveArchiveEquivalence(t *testing.T) {
	const (
		stages     = 3
		stageSteps = 16 // one full block per stage, so commit points align
		blockPts   = 16 // with block boundaries and byte-identity can hold
	)
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scene := render.NewSceneCache(render.Options{})

	// Pre-render the whole corpus; the stage loop releases it into the
	// dataset directory piecewise, as a crawler would.
	type snap struct {
		at   time.Time
		data []byte
	}
	var snaps []snap
	from := sc.Start.AddDate(0, 2, 0)
	for i := 0; i < stages*stageSteps; i++ {
		at := from.Add(time.Duration(i) * 5 * time.Minute)
		m, err := sim.MapAt(wmap.Europe, at)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := scene.WriteSVGCached(&sb, m); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{at, []byte(sb.String())})
	}

	archPath := filepath.Join(t.TempDir(), "live.tsdb")
	arch, err := tsdb.OpenAppend(archPath)
	if err != nil {
		t.Fatal(err)
	}
	arch.SetBlockPoints(blockPts)

	var (
		rd      *tsdb.Reader
		srv     *httptest.Server
		lastTag string
	)
	get := func(inm string) (status int, etag string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/maps", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}

	for s := 0; s < stages; s++ {
		for _, sn := range snaps[s*stageSteps : (s+1)*stageSteps] {
			if err := store.WriteSnapshot(wmap.Europe, sn.at, dataset.ExtSVG, sn.data); err != nil {
				t.Fatal(err)
			}
		}
		// The catch-up pass, exactly as wmparse -follow runs it: emit from
		// the archived tail, then commit the cycle.
		popt := dataset.ProcessOptions{
			Workers: 4,
			Extract: extract.DefaultOptions(),
			Emit:    arch.Append,
		}
		if lt, ok := arch.LastTime(wmap.Europe); ok {
			popt.EmitFrom = lt
		}
		if _, err := store.ProcessMapParallel(context.Background(), wmap.Europe, popt); err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}
		if err := arch.Sync(); err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}

		// The tailing side: adopt the commit, verify coverage and the ETag
		// roll.
		if s == 0 {
			rd, err = tsdb.OpenFile(archPath)
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			srv = httptest.NewServer(tsdb.NewAPIHandler(rd))
			defer srv.Close()
		} else {
			changed, err := rd.Refresh()
			if err != nil || !changed {
				t.Fatalf("stage %d: Refresh changed=%v err=%v", s, changed, err)
			}
		}
		if got, want := rd.Snapshots(wmap.Europe), (s+1)*stageSteps; got != want {
			t.Fatalf("stage %d: reader covers %d snapshots, want %d", s, got, want)
		}
		status, tag := get("")
		if status != http.StatusOK || tag == "" {
			t.Fatalf("stage %d: GET maps: status %d etag %q", s, status, tag)
		}
		if status, _ := get(tag); status != http.StatusNotModified {
			t.Fatalf("stage %d: current tag revalidated with %d, want 304", s, status)
		}
		if s > 0 {
			if tag == lastTag {
				t.Fatalf("stage %d: ETag did not roll with the commit: %q", s, tag)
			}
			if status, _ := get(lastTag); status != http.StatusOK {
				t.Fatalf("stage %d: stale tag %q answered %d, want 200 with fresh data", s, lastTag, status)
			}
		}
		lastTag = tag
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	liveBytes, err := os.ReadFile(archPath)
	if err != nil {
		t.Fatal(err)
	}

	// Batch build of the now-complete corpus: byte-identical.
	var batch bytes.Buffer
	wB := tsdb.NewWriter(&batch)
	wB.SetBlockPoints(blockPts)
	if err := store.WalkMapsParallel(context.Background(), wmap.Europe, 4, wB.Append); err != nil {
		t.Fatal(err)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveBytes, batch.Bytes()) {
		t.Fatalf("staged live archive differs from batch archive: %d vs %d bytes",
			len(liveBytes), batch.Len())
	}

	// And the figures from the closed live archive match the YAML stream
	// byte for byte.
	closed, err := tsdb.NewReader(bytes.NewReader(liveBytes), int64(len(liveBytes)))
	if err != nil {
		t.Fatal(err)
	}
	liveStream := func(yield func(*wmap.Map) error) error {
		cur := closed.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 1)
		for cur.Next() {
			if err := yield(cur.MapView().Clone()); err != nil {
				return err
			}
		}
		return cur.Err()
	}
	yamlStream := func(yield func(*wmap.Map) error) error {
		return store.WalkMapsParallel(context.Background(), wmap.Europe, 4, yield)
	}
	if got, want := renderAnalyses(t, liveStream), renderAnalyses(t, yamlStream); got != want {
		t.Errorf("figures from the follow-mode archive diverge from the YAML analyses:\n--- live ---\n%s\n--- yaml ---\n%s", got, want)
	}
}

// TestStudiesOverMapView runs the topology-change studies over two days of
// hourly Europe snapshots across the 2020-10-02 decommission and the
// 2020-10-03 peering links, once through owned
// snapshots (clones of Cursor.MapView) and once through the cursor's
// reused view itself (the wmanalyze -archive stream). A study that keeps a
// yielded map sees the view overwritten under it, diffs every snapshot
// against itself and reports no change; each must render the same figures
// from both streams, and those figures must show the decommission.
func TestStudiesOverMapView(t *testing.T) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := tsdb.NewWriter(&buf)
	from := time.Date(2020, time.October, 1, 12, 0, 0, 0, time.UTC)
	for at := from; at.Before(from.Add(48 * time.Hour)); at = at.Add(time.Hour) {
		m, err := sim.MapAt(wmap.Europe, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := tsdb.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	stream := func(view bool) analysis.Stream {
		return func(yield func(*wmap.Map) error) error {
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 2)
			defer cur.Close()
			for cur.Next() {
				m := cur.MapView()
				if !view {
					m = m.Clone()
				}
				if err := yield(m); err != nil {
					return err
				}
			}
			return cur.Err()
		}
	}

	churn, err := analysis.ChurnStudy(stream(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Events) != 2 {
		t.Fatalf("owned snapshots: %d churn events, want 2 (the decommission and the monthly peering links)", len(churn.Events))
	}
	want := renderTopologyStudies(t, stream(false))
	for _, site := range []string{"lon ", "ath ", "cph "} {
		if !strings.Contains(want, "  "+site) {
			t.Errorf("owned snapshots: site growth does not show %q:\n%s", site, want)
		}
	}
	if got := renderTopologyStudies(t, stream(true)); got != want {
		t.Errorf("studies over Cursor.MapView diverge from Cursor.Map:\n--- view ---\n%s\n--- owned ---\n%s", got, want)
	}
}

// TestMapViewTopoAndEditedClones runs cursor views across the 2020-10-02
// decommission, whose topology change starts a new block, in blocks of 8
// so that blocks also end without one. Every view's Topo has the view's
// skeleton and changes exactly where the skeleton does, and Clone drops
// it. Clones whose links are then edited must give CongestionStudy,
// SiteGrowthStudy and a ChurnTracker what owned copies edited the same
// way give them: no edit can hide behind a stale Topo.
func TestMapViewTopoAndEditedClones(t *testing.T) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := tsdb.NewWriter(&buf)
	w.SetBlockPoints(8)
	from := time.Date(2020, time.October, 1, 12, 0, 0, 0, time.UTC)
	for at := from; at.Before(from.Add(48 * time.Hour)); at = at.Add(time.Hour) {
		m, err := sim.MapAt(wmap.Europe, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := tsdb.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}

	cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 2)
	var prev *wmap.Topology
	views, topos := 0, 0
	for ; cur.Next(); views++ {
		v := cur.MapView()
		c := v.Clone()
		if c.Topo != nil {
			t.Fatalf("snapshot %d: Clone kept Topo", views)
		}
		if !v.Topo.Matches(c) {
			t.Fatalf("snapshot %d: the view's Topo does not have its skeleton", views)
		}
		if v.Topo != prev {
			if prev.Matches(c) {
				t.Fatalf("snapshot %d: Topo changed, the skeleton did not", views)
			}
			prev = v.Topo
			topos++
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if views != 48 || topos != 3 {
		t.Fatalf("%d views over %d topologies, want 48 over 3 (the decommission and the monthly peering links)", views, topos)
	}

	// edit drops every odd snapshot's last link and relabels its first,
	// so the skeleton alternates, and moves a load.
	edit := func(k int, m *wmap.Map) {
		if k%2 == 1 {
			m.Links = m.Links[:len(m.Links)-1]
			m.Links[0].LabelA += "x"
		}
		m.Links[0].LoadAB = wmap.Load(k)
	}
	stream := func(clone bool) analysis.Stream {
		return func(yield func(*wmap.Map) error) error {
			cur := rd.CursorParallel(context.Background(), wmap.Europe, time.Time{}, time.Time{}, 2)
			defer cur.Close()
			for k := 0; cur.Next(); k++ {
				v := cur.MapView()
				m := &wmap.Map{ID: v.ID, Time: v.Time, Nodes: slices.Clone(v.Nodes), Links: slices.Clone(v.Links)}
				if clone {
					m = v.Clone()
				}
				edit(k, m)
				if err := yield(m); err != nil {
					return err
				}
			}
			return cur.Err()
		}
	}
	type churnStep struct {
		Diff    *wmap.Diff
		Changed bool
	}
	fold := func(src analysis.Stream) (*analysis.CongestionView, *analysis.SiteGrowthView, []churnStep) {
		cong, err := analysis.CongestionStudy(src, analysis.CongestionOptions{Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		growth, err := analysis.SiteGrowthStudy(src)
		if err != nil {
			t.Fatal(err)
		}
		var tr events.ChurnTracker
		var steps []churnStep
		if err := src(func(m *wmap.Map) error {
			d, changed := tr.Observe(m)
			steps = append(steps, churnStep{d, changed})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return cong, growth, steps
	}
	wantCong, wantGrowth, wantChurn := fold(stream(false))
	gotCong, gotGrowth, gotChurn := fold(stream(true))
	changed := 0
	for _, s := range wantChurn {
		if s.Changed {
			changed++
		}
	}
	if changed != 48 {
		t.Fatalf("owned copies: %d skeleton changes, want all 48 (the edit alternates the skeleton)", changed)
	}
	if !reflect.DeepEqual(gotCong, wantCong) {
		t.Errorf("CongestionStudy over edited clones diverges from owned copies")
	}
	if !reflect.DeepEqual(gotGrowth, wantGrowth) {
		t.Errorf("SiteGrowthStudy over edited clones diverges from owned copies")
	}
	if !reflect.DeepEqual(gotChurn, wantChurn) {
		t.Errorf("ChurnTracker over edited clones diverges from owned copies")
	}
}

// renderTopologyStudies renders the studies that compare snapshots with
// earlier ones: churn, per-site growth and path stability between routers
// of the stream's first snapshot.
func renderTopologyStudies(t *testing.T, stream analysis.Stream) string {
	t.Helper()
	var sb strings.Builder
	churn, err := analysis.ChurnStudy(stream)
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteChurn(&sb, churn)
	growth, err := analysis.SiteGrowthStudy(stream)
	if err != nil {
		t.Fatal(err)
	}
	analysis.WriteSiteGrowth(&sb, growth, 0)
	var pairs [][2]string
	if err := stream(func(m *wmap.Map) error {
		if pairs == nil {
			var routers []string
			for _, n := range m.Routers() {
				routers = append(routers, n.Name)
			}
			for i := 0; i+1 < len(routers); i += 7 {
				pairs = append(pairs, [2]string{routers[i], routers[len(routers)-1-i]})
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	paths, err := analysis.PathStabilityStudy(stream, pairs)
	if err != nil {
		t.Fatal(err)
	}
	analysis.WritePathStability(&sb, paths)
	return sb.String()
}
