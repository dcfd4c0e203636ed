package events

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

var base = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)

func at(min int) time.Time { return base.Add(time.Duration(min) * time.Minute) }

// mkMap builds a snapshot with one backbone pair and a peering carrying
// len(peerLoads) parallel links.
func mkMap(t time.Time, ab, ba wmap.Load, peerLoads ...wmap.Load) *wmap.Map {
	m := &wmap.Map{
		ID:   wmap.Europe,
		Time: t,
		Nodes: []wmap.Node{
			{Name: "par-g1", Kind: wmap.Router},
			{Name: "fra-g1", Kind: wmap.Router},
			{Name: "AMS-IX", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "par-g1", B: "fra-g1", LabelA: "#1", LabelB: "#1", LoadAB: ab, LoadBA: ba},
		},
	}
	for i, l := range peerLoads {
		m.Links = append(m.Links, wmap.Link{
			A: "par-g1", B: "AMS-IX",
			LabelA: "#p", LabelB: "#p",
			LoadAB: l, LoadBA: wmap.Load(20 + i),
		})
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// types lists every event type in wire order.
func types() []Type {
	out := make([]Type, 0, int(maxType))
	for t := TypeChurn; t <= maxType; t++ {
		out = append(out, t)
	}
	return out
}

func TestTypeRoundTrip(t *testing.T) {
	for _, ty := range types() {
		got, err := ParseType(ty.String())
		if err != nil || got != ty {
			t.Fatalf("ParseType(%q) = %v, %v", ty.String(), got, err)
		}
		if !ty.Valid() {
			t.Fatalf("%v not valid", ty)
		}
	}
	if _, err := ParseType("nope"); err == nil {
		t.Fatal("ParseType accepted garbage")
	}
	if Type(0).Valid() || Type(99).Valid() {
		t.Fatal("out-of-range types report valid")
	}
}

func TestTypeJSONRoundTrip(t *testing.T) {
	for _, ty := range types() {
		b, err := json.Marshal(ty)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + ty.String() + `"`; string(b) != want {
			t.Fatalf("marshal %v = %s, want %s", ty, b, want)
		}
		var back Type
		if err := json.Unmarshal(b, &back); err != nil || back != ty {
			t.Fatalf("unmarshal %s = %v, %v", b, back, err)
		}
	}
	var ty Type
	if err := json.Unmarshal([]byte(`"earthquake"`), &ty); err == nil {
		t.Fatal("unmarshal accepted an unknown type")
	}
	if err := json.Unmarshal([]byte(`4`), &ty); err == nil {
		t.Fatal("unmarshal accepted a bare number")
	}
}

func TestChurnDebounceAndFlapCancel(t *testing.T) {
	d := NewDetector(wmap.Europe, Config{ChurnDebounce: 10 * time.Minute, CongestionOn: 101, CongestionOff: 0, DrainHigh: 101, DrainLow: 0}, nil)

	m0 := mkMap(at(0), 10, 20, 30)
	if evs := d.Observe(m0); len(evs) != 0 {
		t.Fatalf("first snapshot emitted %v", evs)
	}

	// A node appears at t=5 and persists: it must emit once the debounce
	// window elapses, stamped with the change time.
	grow := func(t time.Time) *wmap.Map {
		m := mkMap(t, 10, 20, 30)
		m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
		m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#2", LabelB: "#2", LoadAB: 1, LoadBA: 2})
		return m
	}
	if evs := d.Observe(grow(at(5))); len(evs) != 0 {
		t.Fatalf("debounced change emitted immediately: %v", evs)
	}
	if evs := d.Observe(grow(at(10))); len(evs) != 0 {
		t.Fatalf("emitted before window elapsed: %v", evs)
	}
	evs := d.Observe(grow(at(15)))
	if len(evs) != 2 {
		t.Fatalf("want node+link churn, got %v", evs)
	}
	node, link := evs[0], evs[1]
	if node.Node == "" {
		node, link = link, node
	}
	if node.Type != TypeChurn || node.Node != "waw-g1" || node.Delta != 1 || !node.Time.Equal(at(5)) {
		t.Fatalf("bad node churn event %+v", node)
	}
	if link.Type != TypeChurn || link.A != "fra-g1" || link.B != "waw-g1" || link.Delta != 1 {
		t.Fatalf("bad link churn event %+v", link)
	}
	if !node.EmitTime.Equal(at(15)) {
		t.Fatalf("EmitTime = %v, want %v", node.EmitTime, at(15))
	}

	// A flap — removal followed by re-addition inside the window — must
	// cancel out and emit nothing.
	if evs := d.Observe(mkMap(at(20), 10, 20, 30)); len(evs) != 0 {
		t.Fatalf("removal emitted immediately: %v", evs)
	}
	if evs := d.Observe(grow(at(25))); len(evs) != 0 {
		t.Fatalf("flap re-add emitted: %v", evs)
	}
	if evs := d.Observe(grow(at(40))); len(evs) != 0 {
		t.Fatalf("cancelled flap still emitted: %v", evs)
	}
}

func TestCongestionHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnDebounce = 0
	d := NewDetector(wmap.Europe, cfg, nil)

	d.Observe(mkMap(at(0), 50, 10))
	evs := d.Observe(mkMap(at(5), 62, 10))
	if len(evs) != 1 || evs[0].Type != TypeCongestionOnset || evs[0].A != "par-g1" || evs[0].B != "fra-g1" || evs[0].Load != 62 {
		t.Fatalf("want one onset, got %v", evs)
	}
	// Still above the clear threshold: no event either way.
	if evs := d.Observe(mkMap(at(10), 55, 10)); len(evs) != 0 {
		t.Fatalf("hysteresis violated: %v", evs)
	}
	// Re-crossing the onset threshold while congested must not re-fire.
	if evs := d.Observe(mkMap(at(15), 70, 10)); len(evs) != 0 {
		t.Fatalf("onset re-fired: %v", evs)
	}
	evs = d.Observe(mkMap(at(20), 30, 10))
	if len(evs) != 1 || evs[0].Type != TypeCongestionClear || evs[0].Load != 30 {
		t.Fatalf("want one clear, got %v", evs)
	}
	if evs := d.Observe(mkMap(at(25), 30, 10)); len(evs) != 0 {
		t.Fatalf("clear re-fired: %v", evs)
	}
}

func TestMaintenanceDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnDebounce = 0
	cfg.CongestionOn = 101 // silence congestion for this test
	d := NewDetector(wmap.Europe, cfg, nil)

	// Two parallels toward the peering: member 0 drains 40 -> 0 while
	// member 1 absorbs (30 -> 65).
	d.Observe(mkMap(at(0), 1, 1, 40, 30))
	evs := d.Observe(mkMap(at(5), 1, 1, 0, 65))
	if len(evs) != 1 {
		t.Fatalf("want one maintenance event, got %v", evs)
	}
	ev := evs[0]
	if ev.Type != TypeMaintenance || ev.A != "par-g1" || ev.B != "AMS-IX" || ev.Ordinal != 0 || ev.Load != 40 {
		t.Fatalf("bad maintenance event %+v", ev)
	}

	// A drain whose load vanishes instead of moving is not make-before-break.
	d2 := NewDetector(wmap.Europe, cfg, nil)
	d2.Observe(mkMap(at(0), 1, 1, 40, 30))
	if evs := d2.Observe(mkMap(at(5), 1, 1, 0, 31)); len(evs) != 0 {
		t.Fatalf("vanished load reported as maintenance: %v", evs)
	}

	// Membership change in the group suppresses the signature.
	d3 := NewDetector(wmap.Europe, cfg, nil)
	d3.Observe(mkMap(at(0), 1, 1, 40, 30))
	evs = d3.Observe(mkMap(at(5), 1, 1, 0, 65, 5))
	for _, ev := range evs {
		if ev.Type == TypeMaintenance {
			t.Fatalf("membership change still matched drain: %+v", ev)
		}
	}
}

func TestUpgradeDetectionWithDB(t *testing.T) {
	db := peeringdb.New()
	for _, rec := range []peeringdb.Record{
		{Peering: "AMS-IX", Network: "OVH", Gbps: 400, Updated: base.AddDate(0, -1, 0)},
		{Peering: "AMS-IX", Network: "OVH", Gbps: 500, Updated: at(60)},
	} {
		if err := db.Announce(rec); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.ChurnDebounce = 0
	cfg.CongestionOn = 101
	d := NewDetector(wmap.Europe, cfg, db)

	d.Observe(mkMap(at(0), 1, 1, 40, 40))
	var got []Emitted
	for _, ev := range d.Observe(mkMap(at(5), 1, 1, 40, 40, 0)) {
		if ev.Type == TypeUpgrade {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want one upgrade, got %v", got)
	}
	up := got[0]
	if up.Node != "AMS-IX" || up.Delta != 1 || !up.Confirmed || up.Gbps != 500 {
		t.Fatalf("bad upgrade event %+v", up)
	}

	// Activation re-arms the tracker: a second count step fires again.
	d.Observe(mkMap(at(10), 1, 1, 30, 30, 20)) // all loaded -> activated
	got = nil
	for _, ev := range d.Observe(mkMap(at(15), 1, 1, 30, 30, 20, 0)) {
		if ev.Type == TypeUpgrade {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("re-armed tracker did not fire: %v", got)
	}
}

// TestDetectorDeterminism replays the same stream twice and demands
// identical event sequences — the property the archive's crash recovery
// is built on.
func TestDetectorDeterminism(t *testing.T) {
	stream := func() []*wmap.Map {
		var ms []*wmap.Map
		for i := 0; i < 40; i++ {
			m := mkMap(at(5*i), wmap.Load((7*i)%101), wmap.Load((3*i)%101), wmap.Load((11*i)%101), wmap.Load((13*i)%101))
			if i >= 20 {
				m.Nodes = append(m.Nodes, wmap.Node{Name: "waw-g1", Kind: wmap.Router})
				m.Links = append(m.Links, wmap.Link{A: "fra-g1", B: "waw-g1", LabelA: "#9", LabelB: "#9", LoadAB: 3, LoadBA: 4})
			}
			ms = append(ms, m)
		}
		return ms
	}
	run := func() []Emitted {
		d := NewDetector(wmap.Europe, DefaultConfig(), nil)
		var all []Emitted
		for _, m := range stream() {
			all = append(all, d.Observe(m)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("stream produced no events; corpus too tame")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestSummaryCoversAllTypes(t *testing.T) {
	evs := []Event{
		{Type: TypeChurn, Node: "par-g1", Delta: 1},
		{Type: TypeChurn, A: "a", B: "b", Delta: -2},
		{Type: TypeUpgrade, Node: "AMS-IX", Delta: 1, Confirmed: true, Gbps: 500},
		{Type: TypeMaintenance, A: "a", B: "b", Load: 40},
		{Type: TypeCongestionOnset, A: "a", B: "b", Load: 61},
		{Type: TypeCongestionClear, A: "a", B: "b", Load: 40},
	}
	for _, ev := range evs {
		if ev.Summarize() == "" {
			t.Fatalf("empty summary for %+v", ev)
		}
	}
}
