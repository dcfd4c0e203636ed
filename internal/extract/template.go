package extract

// Template-verified Algorithm 1. Between two topology changes, the
// snapshots of one map differ only in the labellink load texts and the
// arrow fill colours; everything else is the same bytes in the same order.
// So a successful full scan of a document records a template: a copy of
// the document, the byte ranges ("holes") of its load texts and arrow
// fills in scan order, and the geometry the scan extracted. The next
// document that consists of the same static bytes with new holes in
// between is filled from the template without lexing.
//
// The fast path is exact, not heuristic. A fill hole may only hold
// '#' and hex digits, a load hole only digits, ' ' and '%'. Neither set
// holds '<', '&', a quote, ']', '!', '\r', a control byte or a byte
// >= 0x80, which are every byte that can end a text run or an attribute
// value, start markup, trigger entity or newline rewriting, or route the
// document to encoding/xml. A hole made of them lexes as one plain run of
// its own bytes whatever its length, so a document whose static bytes
// all match lexes to the template's element sequence with only the hole
// values changed. Loads are parsed with ParseLoad's rules and colors
// checked as the full scan checks them; anything either would reject, and
// any mismatch at all, falls back to the full scan, which then reports the
// error or records a new template.

import (
	"bytes"
	"math"
	"slices"

	"ovhweather/internal/geom"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// maxTemplates bounds the templates one ScanResult keeps: one per map the
// caller cycles through, plus a map's previous layout across a topology
// change, with the least recently used evicted.
const maxTemplates = 8

// maxInternedFills bounds the fill strings a template set interns, so an
// adversarial stream of colors cannot grow it without limit.
const maxInternedFills = 256

type holeKind uint8

const (
	holeFill holeKind = iota // an arrow polygon's fill attribute value
	holeLoad                 // a labellink text body
)

// hole is one variable byte range of a template document and the result
// field it sets: link's Fills[dir] or Loads[dir]. Offsets are 32-bit to
// keep resident templates small; longer documents get no template.
type hole struct {
	start, end int32 // in template.doc
	link       int32
	dir        uint8
	kind       holeKind
}

// holeByte reports whether c may appear in a hole of the kind.
func holeByte(kind holeKind, c byte) bool {
	if kind == holeFill {
		return c == '#' || '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
	}
	return '0' <= c && c <= '9' || c == ' ' || c == '%'
}

// template is the layout of one scanned document.
type template struct {
	doc     []byte // copy of the document; callers reuse their buffers
	holes   []hole // in document order
	static  int    // bytes of doc outside the holes
	routers []RawRouter
	arrows  [][2]geom.Polygon // per link; its fills and loads come from holes
	labels  []RawLabel
}

// templateSet is the bounded template cache a ScanResult carries across
// Reset.
type templateSet struct {
	tpls  []*template // most recently used first
	rec   holeRecorder
	fills map[string]string
	hits  int
}

// holeRecorder collects the holes of a full scan. A nil recorder (the
// io.Reader path) records nothing.
type holeRecorder struct {
	data      []byte
	holes     []hole
	holeBytes int
	ok        bool
}

func (s *templateSet) recorder(data []byte) *holeRecorder {
	s.rec = holeRecorder{data: data, holes: s.rec.holes[:0], ok: true}
	return &s.rec
}

// hole records the span of a fill or load the scan consumed. A span the
// lexer could not report (the encoding/xml path, a text split in runs), a
// byte outside the hole charset, or a hole out of document order makes the
// document ineligible for a template.
//
//wm:hotpath
func (r *holeRecorder) hole(kind holeKind, sp svg.Span, link, dir int) {
	if r == nil || !r.ok {
		return
	}
	if !sp.Known() || sp.End >= len(r.data) || len(r.data) > math.MaxInt32 ||
		len(r.holes) > 0 && sp.Start < int(r.holes[len(r.holes)-1].end) ||
		holeByte(kind, r.data[sp.End]) {
		r.ok = false
		return
	}
	for _, c := range r.data[sp.Start:sp.End] {
		if !holeByte(kind, c) {
			r.ok = false
			return
		}
	}
	r.holes = append(r.holes, hole{start: int32(sp.Start), end: int32(sp.End), link: int32(link), dir: uint8(dir), kind: kind})
	r.holeBytes += sp.End - sp.Start
}

// add stores the template of the document res was just fully scanned
// from, evicting the least recently used one when the set is full, and
// returns it (nil when the document is ineligible).
//
// A template is never refilled: a ScanResult and an AttributionCache hold
// template pointers as proof of which geometry they saw, so every stored
// layout gets a template of its own. Only the evicted template's buffers
// are recycled; nothing reads an evicted template's contents again.
func (s *templateSet) add(res *ScanResult, rec *holeRecorder) *template {
	data := rec.data
	if !rec.ok || len(rec.holes) == 0 {
		return nil
	}
	t := &template{}
	if len(s.tpls) < maxTemplates {
		s.tpls = append(s.tpls, t)
	} else {
		old := s.tpls[len(s.tpls)-1]
		t.doc, t.holes, t.routers, t.arrows, t.labels = old.doc, old.holes, old.routers, old.arrows, old.labels
		s.tpls[len(s.tpls)-1] = t
	}
	s.toFront(len(s.tpls) - 1)

	t.doc = append(t.doc[:0], data...)
	// The template takes the recorded holes; the recorder gets the old
	// template's slice to fill next time.
	t.holes, rec.holes = rec.holes, t.holes[:0]
	t.static = len(data) - rec.holeBytes
	t.routers = append(t.routers[:0], res.Routers...)
	t.labels = append(t.labels[:0], res.Labels...)
	// The arrows go into a fresh block rather than the evicted template's:
	// results it filled still share that block.
	n := 0
	for _, l := range res.Links {
		n += len(l.ArrowA) + len(l.ArrowB)
	}
	pts := make(geom.Polygon, 0, n)
	t.arrows = slices.Grow(t.arrows[:0], len(res.Links))
	for _, l := range res.Links {
		a := len(pts)
		pts = append(pts, l.ArrowA...)
		b := len(pts)
		pts = append(pts, l.ArrowB...)
		t.arrows = append(t.arrows, [2]geom.Polygon{pts[a:b:b], pts[b:len(pts):len(pts)]})
	}
	return t
}

// fill fills the Reset res from the first stored template data matches,
// most recently used first, and reports whether one did.
//
//wm:hotpath
func (s *templateSet) fill(res *ScanResult, data []byte, opt ScanOptions) bool {
	for i, t := range s.tpls {
		if t.fill(res, data, opt, s) {
			s.toFront(i)
			s.hits++
			res.tmpl = t
			return true
		}
	}
	return false
}

func (s *templateSet) toFront(i int) {
	t := s.tpls[i]
	copy(s.tpls[1:i+1], s.tpls[:i])
	s.tpls[0] = t
}

// fill fills res from t if data is t's document with new holes. On a
// mismatch res is left Reset.
//
//wm:hotpath
func (t *template) fill(res *ScanResult, data []byte, opt ScanOptions, s *templateSet) bool {
	// Most mismatches are another map: reject them on the first segment,
	// before copying any geometry.
	if len(data) < t.static || !bytes.HasPrefix(data, t.doc[:t.holes[0].start]) {
		return false
	}
	res.Routers = append(res.Routers, t.routers...)
	for _, a := range t.arrows {
		res.Links = append(res.Links, RawLink{ArrowA: a[0], ArrowB: a[1]})
	}
	res.Labels = append(res.Labels, t.labels...)
	if !t.fillHoles(res, data, s) || opt.VerifyColors && !colorsMatch(res.Links) {
		res.Reset()
		return false
	}
	return true
}

// fillHoles walks data as t's static segments with holes in between,
// setting each hole's fill or load in res.Links. A hole runs over its
// charset; the next static segment must start exactly where it ends.
//
//wm:hotpath
func (t *template) fillHoles(res *ScanResult, data []byte, s *templateSet) bool {
	pos, prev := 0, int32(0)
	for _, h := range t.holes {
		seg := t.doc[prev:h.start]
		if !bytes.HasPrefix(data[pos:], seg) {
			return false
		}
		pos += len(seg)
		end := pos
		for end < len(data) && holeByte(h.kind, data[end]) {
			end++
		}
		l := &res.Links[h.link]
		if h.kind == holeFill {
			l.Fills[h.dir] = s.intern(data[pos:end])
		} else {
			load, ok := parseLoadHole(data[pos:end])
			if !ok {
				return false
			}
			l.Loads[h.dir] = load
		}
		pos, prev = end, h.end
	}
	return bytes.Equal(data[pos:], t.doc[prev:])
}

// parseLoadHole is ParseLoad on a load hole: it accepts exactly the texts
// ParseLoad accepts. A rejected text is left to the full scan, which
// reports ParseLoad's error.
//
//wm:hotpath
func parseLoadHole(b []byte) (wmap.Load, bool) {
	b = bytes.Trim(b, " ")
	if n := len(b); n > 0 && b[n-1] == '%' {
		b = bytes.TrimRight(b[:n-1], " ")
	}
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		// Past 100 the text is out of range or overflows; either way
		// ParseLoad rejects it.
		if n = n*10 + int(c-'0'); n > 100 {
			return 0, false
		}
	}
	return wmap.Load(n), true
}

// colorsMatch is the VerifyColors check of the full scan.
func colorsMatch(links []RawLink) bool {
	for i := range links {
		l := &links[i]
		if !wmap.ColorMatchesLoad(l.Fills[0], l.Loads[0]) || !wmap.ColorMatchesLoad(l.Fills[1], l.Loads[1]) {
			return false
		}
	}
	return true
}

// intern returns b as a string, without allocating for a fill seen
// before.
//
//wm:hotpath
func (s *templateSet) intern(b []byte) string {
	if f, ok := s.fills[string(b)]; ok {
		return f
	}
	f := string(b)
	if s.fills == nil {
		s.fills = make(map[string]string)
	}
	if len(s.fills) < maxInternedFills {
		s.fills[f] = f
	}
	return f
}
