package render

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"ovhweather/internal/geom"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// loadColor maps a load percentage to the weather map's traffic-light
// palette; the color encodes the load "implicitly", as the paper puts it.
// The banding lives in wmap so the extraction side can cross-check it.
func loadColor(l wmap.Load) string { return wmap.LoadColor(l) }

// WriteSVG renders the scene with the loads carried by m. The scene's
// geometry must have been laid out for a map with identical topology (same
// nodes and links in the same order); only the load percentages are read
// from m, which lets one layout serve every five-minute snapshot between
// two topology changes.
func WriteSVG(w io.Writer, sc *Scene, m *wmap.Map) error {
	if len(m.Links) != len(sc.Links) || len(m.Nodes) != len(sc.Nodes) {
		return fmt.Errorf("render: map (%d nodes, %d links) does not match scene (%d nodes, %d links)",
			len(m.Nodes), len(m.Links), len(sc.Nodes), len(sc.Links))
	}
	sw := svg.NewWriter(w, sc.Width, sc.Height)
	// Links first, routers and peerings after: the real weather map draws
	// boxes over the arrows; Algorithm 1 is order-agnostic across element
	// classes but depends on intra-link ordering, which writeLink preserves
	// (arrow, arrow, load, load).
	writeBody(sw, sc, m, true)
	return sw.Close()
}

// namePos anchors the node name inside its box.
func namePos(pn *PlacedNode) geom.Point {
	return geom.Pt(pn.Box.Min.X+4, pn.Box.Center().Y+4)
}

// Render lays out and writes a snapshot in one call.
func Render(w io.Writer, m *wmap.Map, opt Options) error {
	sc, err := Layout(m, opt)
	if err != nil {
		return err
	}
	return WriteSVG(w, sc, m)
}

// TopologyFingerprint hashes the structural content of a map — node names
// and kinds, link endpoints and labels, all in order — ignoring loads and
// time. Snapshots between two topology changes share a fingerprint and can
// share a layout.
func TopologyFingerprint(m *wmap.Map) uint64 {
	h := fnv.New64a()
	for _, n := range m.Nodes {
		io.WriteString(h, n.Name)
		io.WriteString(h, "\x1f")
		io.WriteString(h, string(n.Kind))
		io.WriteString(h, "\x1e")
	}
	io.WriteString(h, "\x1d")
	for _, l := range m.Links {
		io.WriteString(h, l.A)
		io.WriteString(h, "\x1f")
		io.WriteString(h, l.B)
		io.WriteString(h, "\x1f")
		io.WriteString(h, l.LabelA)
		io.WriteString(h, "\x1f")
		io.WriteString(h, l.LabelB)
		io.WriteString(h, "\x1e")
	}
	return h.Sum64()
}

// SceneCache memoizes layouts by topology fingerprint. It is safe for
// concurrent use. Since a two-year run of a map has only dozens of
// topology versions, the cache stays small; Evict trims it if a caller
// generates many synthetic topologies.
type SceneCache struct {
	mu     sync.Mutex
	opt    Options
	scenes map[uint64]*Scene
}

// NewSceneCache returns a cache laying out with the given options.
func NewSceneCache(opt Options) *SceneCache {
	return &SceneCache{opt: opt, scenes: make(map[uint64]*Scene)}
}

// Scene returns the layout for m's topology, computing it on first use.
func (c *SceneCache) Scene(m *wmap.Map) (*Scene, error) {
	fp := TopologyFingerprint(m)
	c.mu.Lock()
	sc, ok := c.scenes[fp]
	c.mu.Unlock()
	if ok {
		return sc, nil
	}
	sc, err := Layout(m, c.opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.scenes[fp] = sc
	c.mu.Unlock()
	return sc, nil
}

// WriteSVGCached renders m using the cache.
func (c *SceneCache) WriteSVGCached(w io.Writer, m *wmap.Map) error {
	sc, err := c.Scene(m)
	if err != nil {
		return err
	}
	return WriteSVG(w, sc, m)
}
