package extract

import (
	"math"
	"time"

	"ovhweather/internal/geom"
	"ovhweather/internal/wmap"
)

// AttributionCache memoizes Algorithm 2 across consecutive snapshots of one
// map. Attribution depends only on the scanned geometry — router names and
// boxes, arrow polygons, label boxes and texts — and the Options; the loads
// merely ride along into the output links. Consecutive snapshots almost
// always share their topology, differing only in loads, so the cache
// fingerprints the geometry and, on a hit, clones the previous attribution
// and splices in the fresh loads, skipping Algorithm 2 entirely.
//
// The cache holds a single entry (the previous snapshot's geometry), which
// matches the access pattern: each worker processes one map's timeline in
// order, and topology changes are rare events after which the new topology
// again persists for a long run. A fingerprint collision cannot corrupt
// output because a hit additionally requires full geometry equality.
//
// A scan filled from a template (see template.go), or one whose full scan
// stored a template, names that template in its ScanResult. The cache
// records the template of the geometry it holds, so a result naming the
// same template is a hit without fingerprinting or comparing anything:
// templates are immutable and own their geometry.
//
// An AttributionCache is not safe for concurrent use; the worker-pool path
// creates one per worker. It must never be copied by value — the template
// map is spliced in place on every hit, so a copy would alias mutable
// state across owners (wmlint's sharded analyzer enforces this).
//
//wm:nocopy
type AttributionCache struct {
	opt Options

	valid       bool
	fingerprint uint64
	// Deep copies of the cached geometry, owned by the cache (the caller's
	// ScanResult slices are reused across snapshots).
	routers []RawRouter
	links   []cachedArrows
	labels  []RawLabel
	// template is the attribution of the cached geometry; loads in its
	// links are stale and overwritten on every hit.
	template *wmap.Map
	// tmpl is the scan template the cached geometry equals, if known.
	tmpl *template
	// scratch is Algorithm 2's working memory, reused across misses.
	scratch attributor

	hits, misses int
}

// cachedArrows is the geometry of one scanned link: the arrow pair without
// its loads (and without fills, which only feed the scan-time color check).
type cachedArrows struct {
	arrowA, arrowB geom.Polygon
}

// NewAttributionCache returns an empty cache attributing with opt.
func NewAttributionCache(opt Options) *AttributionCache {
	return &AttributionCache{opt: opt}
}

// Options returns the attribution options the cache was created with.
func (c *AttributionCache) Options() Options { return c.opt }

// Hits returns the number of Attribute calls served from the cache.
func (c *AttributionCache) Hits() int { return c.hits }

// Misses returns the number of Attribute calls that ran Algorithm 2.
func (c *AttributionCache) Misses() int { return c.misses }

// Attribute is Attribute(res, id, at, c.opt) with memoization. The returned
// map is owned by the caller; the cache never aliases it.
func (c *AttributionCache) Attribute(res *ScanResult, id wmap.MapID, at time.Time) (*wmap.Map, error) {
	if c.valid && res.tmpl != nil && res.tmpl == c.tmpl {
		return c.hit(res, id, at), nil
	}
	fp := fingerprintGeometry(res)
	if c.valid && fp == c.fingerprint && c.sameGeometry(res) {
		c.tmpl = res.tmpl
		return c.hit(res, id, at), nil
	}

	c.misses++
	m, err := c.scratch.attribute(res, id, at, c.opt)
	if err != nil {
		// Don't cache failures: the same broken geometry would fail again,
		// and keeping the previous entry lets a revert still hit.
		return nil, err
	}
	c.store(fp, res, m)
	return m, nil
}

// hit returns the cached attribution with res's loads.
func (c *AttributionCache) hit(res *ScanResult, id wmap.MapID, at time.Time) *wmap.Map {
	c.hits++
	m := c.template.Clone()
	m.ID = id
	m.Time = at
	// Attribute appends one output link per scanned link, in scan order,
	// with LoadAB = Loads[0] and LoadBA = Loads[1]; splice the fresh loads
	// by index.
	for i := range m.Links {
		m.Links[i].LoadAB = res.Links[i].Loads[0]
		m.Links[i].LoadBA = res.Links[i].Loads[1]
	}
	return m
}

// store replaces the cache entry with deep copies of res's geometry and the
// attribution template.
func (c *AttributionCache) store(fp uint64, res *ScanResult, m *wmap.Map) {
	c.valid = true
	c.fingerprint = fp
	c.routers = append(c.routers[:0], res.Routers...)
	c.labels = append(c.labels[:0], res.Labels...)
	c.links = c.links[:0]
	for _, l := range res.Links {
		c.links = append(c.links, cachedArrows{
			arrowA: append(geom.Polygon(nil), l.ArrowA...),
			arrowB: append(geom.Polygon(nil), l.ArrowB...),
		})
	}
	c.template = m.Clone()
	c.tmpl = res.tmpl
}

// sameGeometry reports whether res's geometry equals the cached entry,
// making hits exact rather than probabilistic.
func (c *AttributionCache) sameGeometry(res *ScanResult) bool {
	if len(res.Routers) != len(c.routers) || len(res.Links) != len(c.links) || len(res.Labels) != len(c.labels) {
		return false
	}
	for i, r := range res.Routers {
		if r.Name != c.routers[i].Name || r.Box != c.routers[i].Box {
			return false
		}
	}
	for i, l := range res.Links {
		if !samePolygon(l.ArrowA, c.links[i].arrowA) || !samePolygon(l.ArrowB, c.links[i].arrowB) {
			return false
		}
	}
	for i, l := range res.Labels {
		if l.Text != c.labels[i].Text || l.Box != c.labels[i].Box {
			return false
		}
	}
	return true
}

func samePolygon(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fingerprintGeometry hashes the attribution-relevant parts of a scan with
// FNV-1a: router names and boxes, arrow polygons, label boxes and texts.
// Loads and fills are deliberately excluded — they never influence
// attribution — so snapshots differing only in traffic share a fingerprint.
func fingerprintGeometry(res *ScanResult) uint64 {
	h := fnvOffset
	h = fnvInt(h, len(res.Routers))
	for _, r := range res.Routers {
		h = fnvString(h, r.Name)
		h = fnvRect(h, r.Box)
	}
	h = fnvInt(h, len(res.Links))
	for _, l := range res.Links {
		h = fnvPolygon(h, l.ArrowA)
		h = fnvPolygon(h, l.ArrowB)
	}
	h = fnvInt(h, len(res.Labels))
	for _, l := range res.Labels {
		h = fnvString(h, l.Text)
		h = fnvRect(h, l.Box)
	}
	return h
}

// Inline FNV-1a 64: hashing through hash.Hash costs an interface call and a
// byte-slice round trip per field; these helpers fold values directly.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvInt(h uint64, v int) uint64 { return fnvUint64(h, uint64(v)) }

func fnvFloat(h uint64, f float64) uint64 { return fnvUint64(h, math.Float64bits(f)) }

func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvRect(h uint64, r geom.Rect) uint64 {
	h = fnvFloat(h, r.Min.X)
	h = fnvFloat(h, r.Min.Y)
	h = fnvFloat(h, r.Max.X)
	h = fnvFloat(h, r.Max.Y)
	return h
}

func fnvPolygon(h uint64, p geom.Polygon) uint64 {
	h = fnvInt(h, len(p))
	for _, pt := range p {
		h = fnvFloat(h, pt.X)
		h = fnvFloat(h, pt.Y)
	}
	return h
}
