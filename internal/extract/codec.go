package extract

import (
	"fmt"
	"time"

	"ovhweather/internal/wmap"
	"ovhweather/internal/yamlx"
)

// The processed-file format: one YAML document per snapshot carrying the
// map identity, the snapshot time, the node list, and the link list with
// per-direction labels and loads. This is this reproduction's equivalent of
// the dataset's YAML files.

// MarshalYAML renders an extracted map as the processed-file YAML document.
func MarshalYAML(m *wmap.Map) ([]byte, error) {
	nodes := make([]any, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		nodes = append(nodes, map[string]any{
			"name": n.Name,
			"kind": string(n.Kind),
		})
	}
	links := make([]any, 0, len(m.Links))
	for _, l := range m.Links {
		links = append(links, map[string]any{
			"a":       l.A,
			"b":       l.B,
			"label_a": l.LabelA,
			"label_b": l.LabelB,
			"load_ab": int(l.LoadAB),
			"load_ba": int(l.LoadBA),
		})
	}
	doc := map[string]any{
		"map":       string(m.ID),
		"timestamp": m.Time.UTC().Format(time.RFC3339),
		"nodes":     nodes,
		"links":     links,
	}
	return yamlx.Marshal(doc)
}

// UnmarshalYAML parses a processed-file document back into a map.
func UnmarshalYAML(data []byte) (*wmap.Map, error) {
	v, err := yamlx.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	doc, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("extract: processed file is not a mapping")
	}
	m := &wmap.Map{}
	id, err := strField(doc, "map")
	if err != nil {
		return nil, err
	}
	m.ID = wmap.MapID(id)
	tsRaw, err := strField(doc, "timestamp")
	if err != nil {
		return nil, err
	}
	ts, err := time.Parse(time.RFC3339, tsRaw)
	if err != nil {
		return nil, fmt.Errorf("extract: bad timestamp %q: %w", tsRaw, err)
	}
	m.Time = ts

	nodes, err := seqField(doc, "nodes")
	if err != nil {
		return nil, err
	}
	for i, nv := range nodes {
		nm, ok := nv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("extract: node %d is not a mapping", i)
		}
		name, err := strField(nm, "name")
		if err != nil {
			return nil, fmt.Errorf("extract: node %d: %w", i, err)
		}
		kind, err := strField(nm, "kind")
		if err != nil {
			return nil, fmt.Errorf("extract: node %d: %w", i, err)
		}
		m.Nodes = append(m.Nodes, wmap.Node{Name: name, Kind: wmap.NodeKind(kind)})
	}

	links, err := seqField(doc, "links")
	if err != nil {
		return nil, err
	}
	for i, lv := range links {
		lm, ok := lv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("extract: link %d is not a mapping", i)
		}
		var l wmap.Link
		if l.A, err = strField(lm, "a"); err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		if l.B, err = strField(lm, "b"); err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		if l.LabelA, err = strField(lm, "label_a"); err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		if l.LabelB, err = strField(lm, "label_b"); err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		ab, err := intField(lm, "load_ab")
		if err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		ba, err := intField(lm, "load_ba")
		if err != nil {
			return nil, fmt.Errorf("extract: link %d: %w", i, err)
		}
		// Range-check as integers: a wmap.Load is one byte, so 256 would
		// convert to a valid 0.
		if ab < 0 || ab > 100 || ba < 0 || ba > 100 {
			return nil, fmt.Errorf("extract: link %d: load out of range", i)
		}
		l.LoadAB, l.LoadBA = wmap.Load(ab), wmap.Load(ba)
		m.Links = append(m.Links, l)
	}
	return m, nil
}

func strField(m map[string]any, key string) (string, error) {
	v, ok := m[key]
	if !ok {
		return "", fmt.Errorf("missing field %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("field %q is %T, want string", key, v)
	}
	return s, nil
}

func intField(m map[string]any, key string) (int64, error) {
	v, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("missing field %q", key)
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("field %q is %T, want integer", key, v)
	}
	return n, nil
}

func seqField(m map[string]any, key string) ([]any, error) {
	v, ok := m[key]
	if !ok {
		return nil, fmt.Errorf("extract: missing field %q", key)
	}
	if v == nil {
		return nil, nil
	}
	s, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("extract: field %q is %T, want sequence", key, v)
	}
	return s, nil
}
