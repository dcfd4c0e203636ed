package extract_test

import (
	"bytes"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// roundTrip renders a simulated map to SVG and extracts it back.
func roundTrip(t *testing.T, m *wmap.Map) *wmap.Map {
	t.Helper()
	var buf bytes.Buffer
	if err := render.Render(&buf, m, render.Options{}); err != nil {
		t.Fatalf("render: %v", err)
	}
	got, err := extract.ExtractSVG(&buf, m.ID, m.Time, extract.DefaultOptions())
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return got
}

// linkKey identifies a link regardless of orientation for comparison.
type linkKey struct {
	a, b           string
	labelA, labelB string
	loadAB, loadBA wmap.Load
}

func canonical(l wmap.Link) linkKey {
	if l.A <= l.B {
		return linkKey{l.A, l.B, l.LabelA, l.LabelB, l.LoadAB, l.LoadBA}
	}
	return linkKey{l.B, l.A, l.LabelB, l.LabelA, l.LoadBA, l.LoadAB}
}

func compareMaps(t *testing.T, want, got *wmap.Map) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("nodes: got %d, want %d", len(got.Nodes), len(want.Nodes))
	}
	wantNodes := make(map[string]wmap.NodeKind)
	for _, n := range want.Nodes {
		wantNodes[n.Name] = n.Kind
	}
	for _, n := range got.Nodes {
		if k, ok := wantNodes[n.Name]; !ok || k != n.Kind {
			t.Errorf("node %q: got kind %v, want %v (present: %v)", n.Name, n.Kind, k, ok)
		}
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("links: got %d, want %d", len(got.Links), len(want.Links))
	}
	wantCount := make(map[linkKey]int)
	for _, l := range want.Links {
		wantCount[canonical(l)]++
	}
	for _, l := range got.Links {
		k := canonical(l)
		if wantCount[k] == 0 {
			t.Errorf("unexpected extracted link %+v", l)
			continue
		}
		wantCount[k]--
	}
	for k, n := range wantCount {
		if n != 0 {
			t.Errorf("link %+v missing %d time(s)", k, n)
		}
	}
}

func simAt(t *testing.T, id wmap.MapID, at time.Time) *wmap.Map {
	t.Helper()
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MapAt(id, at)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The headline correctness result: a full Europe-scale snapshot survives
// render → Algorithm 1 → Algorithm 2 exactly.
func TestRoundTripEuropeFullScale(t *testing.T) {
	sc := netsim.DefaultScenario()
	m := simAt(t, wmap.Europe, sc.End)
	got := roundTrip(t, m)
	compareMaps(t, m, got)
}

func TestRoundTripAllMapsMidTimeline(t *testing.T) {
	sc := netsim.DefaultScenario()
	at := sc.Start.AddDate(1, 1, 7).Add(13 * time.Hour)
	for _, id := range wmap.AllMaps() {
		id := id
		t.Run(string(id), func(t *testing.T) {
			m := simAt(t, id, at)
			got := roundTrip(t, m)
			compareMaps(t, m, got)
		})
	}
}

// The upgrade-study window has an inactive link (0 % both ways) and five
// parallels toward AMS-IX; attribution must keep them apart.
func TestRoundTripDuringUpgradeWindow(t *testing.T) {
	sc := netsim.DefaultScenario()
	at := sc.Upgrade.Added.AddDate(0, 0, 4).Add(10 * time.Hour)
	m := simAt(t, wmap.Europe, at)
	got := roundTrip(t, m)
	compareMaps(t, m, got)
	var amsLinks, zero int
	for _, l := range got.Links {
		if l.B == sc.Upgrade.Peering || l.A == sc.Upgrade.Peering {
			amsLinks++
			if l.LoadAB == 0 && l.LoadBA == 0 {
				zero++
			}
		}
	}
	if amsLinks != sc.Upgrade.LinksBefore+1 || zero != 1 {
		t.Errorf("AMS-IX links = %d (zero-load %d), want %d with exactly 1 unused",
			amsLinks, zero, sc.Upgrade.LinksBefore+1)
	}
}

func TestRoundTripYAMLCodec(t *testing.T) {
	sc := netsim.DefaultScenario()
	m := simAt(t, wmap.AsiaPacific, sc.End)
	data, err := extract.MarshalYAML(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := extract.UnmarshalYAML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != m.ID || !back.Time.Equal(m.Time) {
		t.Errorf("identity: got %s @ %s", back.ID, back.Time)
	}
	compareMaps(t, m, back)
}

// Grid-indexed and exhaustive attribution agree on a full Europe-scale
// document.
func TestPrunedMatchesExhaustiveFullScale(t *testing.T) {
	sc := netsim.DefaultScenario()
	m := simAt(t, wmap.Europe, sc.End)
	var buf bytes.Buffer
	if err := render.Render(&buf, m, render.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := extract.Attribute(res, m.ID, m.Time, extract.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.AttributeExhaustive(res, m.ID, m.Time, extract.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Links) != len(ex.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(fast.Links), len(ex.Links))
	}
	for i := range fast.Links {
		if fast.Links[i] != ex.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, fast.Links[i], ex.Links[i])
		}
	}
}
