package tsdb

import (
	"encoding/json"
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// TestAppendJSONTimeMatchesEncodingJSON pins the fast RFC 3339 formatter
// (and its fallbacks) to exactly what encoding/json produces, across the
// fast-path boundaries: whole seconds, nanoseconds, non-UTC offsets,
// pre-1970 instants, and the four-digit-year edges.
func TestAppendJSONTimeMatchesEncodingJSON(t *testing.T) {
	cet := time.FixedZone("CET", 3600)
	cases := []time.Time{
		time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 2, 29, 23, 59, 59, 0, time.UTC), // leap day
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1903, 1, 2, 3, 4, 5, 0, time.UTC),
		time.Date(2020, 7, 1, 12, 30, 0, 500, time.UTC),       // nanoseconds
		time.Date(2020, 7, 1, 12, 30, 0, 123456789, time.UTC), // nanoseconds
		time.Date(2020, 7, 1, 12, 30, 0, 0, cet),              // non-UTC offset
		time.Unix(rfc3339FastMin, 0).UTC(),                    // year 1
		time.Unix(rfc3339FastMax-1, 0).UTC(),                  // year 9999
		time.Unix(0, 0).UTC(),
		{}, // zero time, year 1, before the unix-seconds fast window
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONTime(nil, tc); string(got) != string(want) {
			t.Errorf("appendJSONTime(%v) = %s, want %s", tc, got, want)
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON pins the integer fast path and the
// shortest-float fallback to encoding/json's output.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 42, 97.5, -0.25, 100, 1e15, -1e15, 1e16, 1e21, -1e300,
		0.1, 1.0 / 3.0, 12345678901234567890, float64(1<<53) - 1, 1 << 53,
	}
	for _, v := range cases {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", v, got, want)
		}
	}
}

// topoNode and topoLink are the rows /api/v1/topology rendered through
// encoding/json before appendTopologyJSON: the fuzz reference.
type topoNode struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type topoLink struct {
	ID     string `json:"id"`
	A      string `json:"a"`
	B      string `json:"b"`
	LabelA string `json:"label_a"`
	LabelB string `json:"label_b"`
	LoadAB int    `json:"load_ab"`
	LoadBA int    `json:"load_ba"`
}

// topologyJSONReference renders the topology body the way the handler did
// with json.MarshalIndent.
func topologyJSONReference(t *testing.T, m *wmap.Map) []byte {
	t.Helper()
	nodes := make([]topoNode, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		nodes = append(nodes, topoNode{Name: n.Name, Kind: string(n.Kind)})
	}
	keys := LinkKeysOf(m)
	links := make([]topoLink, 0, len(m.Links))
	for i, l := range m.Links {
		links = append(links, topoLink{
			ID: keys[i].ID(m.ID), A: l.A, B: l.B,
			LabelA: l.LabelA, LabelB: l.LabelB,
			LoadAB: int(l.LoadAB), LoadBA: int(l.LoadBA),
		})
	}
	body, err := json.MarshalIndent(map[string]any{
		"map": m.ID, "time": m.Time, "nodes": nodes, "links": links,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// FuzzTopologyJSON: appendTopologyJSON renders every snapshot byte for
// byte as the json.MarshalIndent reference does — HTML-significant bytes,
// control bytes, U+2028/U+2029 and invalid UTF-8 in any name included.
// The seeds are netsim maps and names carrying each of those.
func FuzzTopologyJSON(f *testing.F) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		f.Fatal(err)
	}
	maps, err := sim.SnapshotAt(time.Date(2020, 11, 2, 10, 5, 0, 0, time.UTC))
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range maps {
		l, n := m.Links[len(m.Links)/2], m.Nodes[len(m.Nodes)/2]
		f.Add(string(m.ID), n.Name, string(n.Kind), l.A, l.B, l.LabelA, l.LabelB, uint8(l.LoadAB), uint8(l.LoadBA), uint8(len(m.Links)))
	}
	f.Add("eu<rope>", "AMS-IX & co", "peering", "a b", "c d", "#1\xff", "\x00\x1f\b\f\n\r\t\"\\", uint8(7), uint8(100), uint8(3))
	f.Add("", "", "", "", "", "", "", uint8(0), uint8(0), uint8(0))
	f.Add("x\xc3", "\xe2\x80", "é", "日本", "\x7f", "</script>", "&amp;", uint8(255), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, id, node, kind, a, b, la, lb string, ab, ba, n uint8) {
		m := &wmap.Map{ID: wmap.MapID(id), Time: time.Unix(int64(n)*3600, 0).UTC(),
			Nodes: []wmap.Node{{Name: node, Kind: wmap.NodeKind(kind)}, {Name: a, Kind: wmap.Router}}}
		for i := 0; i < int(n%5); i++ {
			m.Links = append(m.Links, wmap.Link{A: a, B: b, LabelA: la, LabelB: lb,
				LoadAB: wmap.Load(int(ab) + i), LoadBA: wmap.Load(ba)})
		}
		if n%7 == 0 {
			m.Nodes = nil
		}
		want := topologyJSONReference(t, m)
		if got := appendTopologyJSON(nil, m, LinkKeysOf(m)); string(got) != string(want) {
			t.Fatalf("appendTopologyJSON diverges from json.MarshalIndent:\ngot  %q\nwant %q", got, want)
		}
	})
}

// TestTopologyJSONNetsim renders every netsim map of one instant through
// appendTopologyJSON and the reference.
func TestTopologyJSONNetsim(t *testing.T) {
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	maps, err := sim.SnapshotAt(time.Date(2021, 1, 2, 23, 30, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maps {
		want := topologyJSONReference(t, m)
		if got := appendTopologyJSON(nil, m, LinkKeysOf(m)); string(got) != string(want) {
			t.Fatalf("%s: appendTopologyJSON diverges from json.MarshalIndent", m.ID)
		}
	}
}
