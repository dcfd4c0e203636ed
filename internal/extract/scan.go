// Package extract implements the paper's primary contribution: turning a
// weather-map SVG image into a structured topology with per-direction link
// loads.
//
// The pipeline has two stages, mirroring the paper's Algorithms 1 and 2.
// Scan (Algorithm 1) walks the flat SVG element sequence and pulls out
// routers, link arrow pairs with their two load percentages, and link-end
// labels, relying only on element classes, tags and document order.
// Attribute (Algorithm 2) then reconstructs the relationships geometrically:
// each link defines the straight line through its two arrow bases; the
// routers and labels whose boxes intersect that line are sorted by distance
// to each link end, the closest router becomes the end's router, and the
// closest label is attributed to the end and removed from the candidate
// set. Sanity checks reject documents that violate the weather map's
// structural invariants.
package extract

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ovhweather/internal/geom"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// Raw* types hold the output of Algorithm 1 before attribution.

// RawRouter is an extracted white box with a name: an OVH router or a
// physical peering.
type RawRouter struct {
	Name string
	Box  geom.Rect
}

// RawLink is an extracted pair of meeting arrows with its two sequential
// load percentages. Loads[0] belongs to ArrowA (the first polygon of the
// pair), Loads[1] to ArrowB.
type RawLink struct {
	ArrowA, ArrowB geom.Polygon
	Fills          [2]string // fill colors of the two arrows
	Loads          [2]wmap.Load
}

// RawLabel is an extracted link-end label: a small white box plus its text.
type RawLabel struct {
	Box  geom.Rect
	Text string
}

// ScanResult is everything Algorithm 1 extracts from one document.
type ScanResult struct {
	Routers []RawRouter
	Links   []RawLink
	Labels  []RawLabel

	// templates are the layouts of recently scanned documents, kept across
	// Reset for ScanBytesInto.
	templates templateSet
	// tmpl is the template whose geometry the result holds: the one that
	// filled it, or the one its full scan just stored. nil when unknown.
	tmpl *template
}

// Reset empties the result while keeping its capacity, so the worker-pool
// path can reuse one ScanResult per worker across snapshots. The stored
// templates survive.
func (r *ScanResult) Reset() {
	r.Routers = r.Routers[:0]
	r.Links = r.Links[:0]
	r.Labels = r.Labels[:0]
	r.tmpl = nil
}

// ScanError describes a structural violation found while scanning.
type ScanError struct {
	Reason string
}

func (e *ScanError) Error() string { return "extract: scan: " + e.Reason }

func scanErrorf(format string, args ...any) error {
	return &ScanError{Reason: fmt.Sprintf(format, args...)}
}

// ScanOptions tunes Algorithm 1.
type ScanOptions struct {
	// VerifyColors cross-checks each load percentage against its arrow's
	// fill color: the map encodes the load twice ("explicitly with a
	// percentage and implicitly through its color"), and disagreement means
	// a corrupted document. Colors outside the known palette are ignored,
	// so the check is safe on foreign maps.
	VerifyColors bool
}

// Scan runs Algorithm 1 over an SVG document: it iterates the flat element
// sequence and classifies each element by class and tag. Two successive
// polygons form a link's arrow pair; the two labellink texts that follow
// carry its loads; "object" rect/text pairs are routers; "node" rect/text
// pairs are labels.
func Scan(r io.Reader, opt ScanOptions) (*ScanResult, error) {
	res := &ScanResult{}
	err := scanInto(res, opt, nil, func(fn func(svg.Element, svg.Spans) error) error {
		return svg.Stream(r, func(e svg.Element) error { return fn(e, svg.Spans{}) })
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ScanBytesInto runs Algorithm 1 over an in-memory document, reusing the
// caller's result: res is Reset and refilled, so a worker can amortize its
// slices across a whole map's snapshots. On error res holds a partial scan
// and must not be used.
//
// res also keeps templates of the last few documents it scanned (see
// template.go). A document that repeats one of them except in its load
// texts and arrow fills is filled from the template without lexing, with
// the result a full scan would produce. On such a hit the arrow polygons
// are shared with the template, so callers must not modify them. The
// result also remembers which template its geometry came from, which lets
// an AttributionCache skip comparing it; a caller that edits the routers,
// arrows or labels of a result must not hand it to one.
func ScanBytesInto(res *ScanResult, data []byte, opt ScanOptions) error {
	res.Reset()
	if res.templates.fill(res, data, opt) {
		return nil
	}
	return scanFull(res, data, opt)
}

// scanFull is ScanBytesInto without the template lookup: a full Algorithm
// 1 scan that stores the document's template when it succeeds.
func scanFull(res *ScanResult, data []byte, opt ScanOptions) error {
	rec := res.templates.recorder(data)
	err := scanInto(res, opt, rec, func(fn func(svg.Element, svg.Spans) error) error {
		return svg.StreamBytesSpans(data, fn)
	})
	if err == nil {
		res.tmpl = res.templates.add(res, rec)
	}
	rec.data = nil // don't pin the caller's buffer
	return err
}

// scanInto runs the Algorithm 1 state machine over an element stream,
// independent of how the stream is produced. A non-nil rec is told where
// each arrow fill and load text lies in the document.
func scanInto(res *ScanResult, opt ScanOptions, rec *holeRecorder, stream func(func(svg.Element, svg.Spans) error) error) error {
	st := scanState{res: res, opt: opt, rec: rec}
	if err := stream(st.element); err != nil {
		return err
	}
	return st.finish()
}

// scanState is the Algorithm 1 state machine. The pending router box, link
// and label are held by value, so a scan allocates nothing per element.
type scanState struct {
	res *ScanResult
	opt ScanOptions
	rec *holeRecorder

	routerBox geom.Rect
	link      RawLink
	label     RawLabel
	loadsSeen int

	hasRouterBox, hasLink, hasLabel bool
}

//wm:hotpath
func (st *scanState) element(e svg.Element, sp svg.Spans) error {
	switch {
	case e.ClassHasPrefix("object"):
		// Router or peering: white box followed by its name.
		switch e.Tag {
		case svg.TagRect:
			if st.hasRouterBox {
				return scanErrorf("unnamed router box followed by another router box")
			}
			st.routerBox, st.hasRouterBox = e.Rect, true
		case svg.TagText:
			if !st.hasRouterBox {
				return scanErrorf("router name %q without a preceding box", e.Text)
			}
			if e.Text == "" {
				return scanErrorf("router box with empty name")
			}
			st.res.Routers = append(st.res.Routers, RawRouter{Name: e.Text, Box: st.routerBox})
			st.hasRouterBox = false
		}
	case e.Tag == svg.TagPolygon:
		// Link arrow: first arrow opens a link, second completes the pair.
		if len(e.Points) < 3 {
			return scanErrorf("arrow polygon with %d points", len(e.Points))
		}
		dir := 0
		if !st.hasLink {
			st.link = RawLink{ArrowA: e.Points, Fills: [2]string{e.Fill, ""}}
			st.hasLink, st.loadsSeen = true, 0
		} else if len(st.link.ArrowB) == 0 {
			st.link.ArrowB = e.Points
			st.link.Fills[1] = e.Fill
			dir = 1
		} else {
			return scanErrorf("third arrow before the link's loads")
		}
		st.rec.hole(holeFill, sp.Fill, len(st.res.Links), dir)
	case e.HasClass("labellink"):
		// Load percentage: the two loads follow the two arrows.
		if !st.hasLink || len(st.link.ArrowB) == 0 {
			return scanErrorf("load %q with no open arrow pair", e.Text)
		}
		load, err := ParseLoad(e.Text)
		if err != nil {
			return err
		}
		if st.opt.VerifyColors && !wmap.ColorMatchesLoad(st.link.Fills[st.loadsSeen], load) {
			return scanErrorf("load %s disagrees with its arrow color %s",
				load, st.link.Fills[st.loadsSeen])
		}
		st.rec.hole(holeLoad, sp.Text, len(st.res.Links), st.loadsSeen)
		st.link.Loads[st.loadsSeen] = load
		st.loadsSeen++
		if st.loadsSeen == 2 {
			st.res.Links = append(st.res.Links, st.link)
			st.hasLink = false
		}
	case e.HasClass("node"):
		// Link label: white box followed by its text.
		switch e.Tag {
		case svg.TagRect:
			if st.hasLabel {
				return scanErrorf("textless label box followed by another label box")
			}
			st.label, st.hasLabel = RawLabel{Box: e.Rect}, true
		case svg.TagText:
			if !st.hasLabel {
				return scanErrorf("label text %q without a preceding box", e.Text)
			}
			st.label.Text = e.Text
			st.res.Labels = append(st.res.Labels, st.label)
			st.hasLabel = false
		}
	}
	return nil
}

// finish rejects a document that ends with an element still pending.
func (st *scanState) finish() error {
	if st.hasLink {
		return scanErrorf("document ends with an incomplete link (%d loads)", st.loadsSeen)
	}
	if st.hasRouterBox {
		return scanErrorf("document ends with an unnamed router box")
	}
	if st.hasLabel {
		return scanErrorf("document ends with a textless label box")
	}
	return nil
}

// ParseLoad parses a displayed load percentage such as "42 %", enforcing
// the paper's range check: every load must lie within [0, 100].
func ParseLoad(s string) (wmap.Load, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "%")
	t = strings.TrimSpace(t)
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, scanErrorf("unparsable load %q", s)
	}
	// Range-check as an integer: a wmap.Load is one byte, so 300 would
	// convert to a valid 44.
	if n < 0 || n > 100 {
		return 0, scanErrorf("load %d outside [0, 100]", n)
	}
	return wmap.Load(n), nil
}

// ErrNotWeathermap is the failure of a document that is valid SVG but
// contains none of the weather map's element classes.
var ErrNotWeathermap = errors.New("extract: document contains no weather-map elements")
