// Package svg provides the minimal SVG document model the weather-map
// pipeline needs: a writer that emits the flat element structure the OVH
// Network Weathermap publishes, and a reader that turns an SVG document back
// into the flat element sequence Algorithm 1 of the paper consumes.
//
// The weather map's SVG is deliberately *not* hierarchical: routers, link
// arrows, load percentages and link labels appear as sibling elements whose
// relationships exist only in 2D space. The reader therefore flattens
// whatever grouping exists and preserves document order, which Algorithm 1
// depends on (the two polygons of a link are adjacent, the two load texts
// follow them, a label's rect precedes its text).
package svg

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ovhweather/internal/geom"
)

// Tag identifies the SVG element kinds the weather map uses.
type Tag string

// Tags appearing in weather-map documents.
const (
	TagRect    Tag = "rect"
	TagText    Tag = "text"
	TagPolygon Tag = "polygon"
	TagLine    Tag = "line"
	TagGroup   Tag = "g"
)

// Element is one flat SVG element in document order.
//
// Depending on Tag, a subset of the fields is meaningful:
//   - TagRect: Rect (from x/y/width/height)
//   - TagText: Pos (from x/y) and Text
//   - TagPolygon: Points
//   - TagGroup: no geometry of its own; the reader emits a group's class on
//     each of its children instead, mirroring how the extraction scripts see
//     class attributes after flattening.
type Element struct {
	Tag    Tag
	Class  string
	ID     string
	Text   string
	Fill   string // fill attribute (polygons carry the load color)
	Rect   geom.Rect
	Pos    geom.Point
	Points geom.Polygon
}

// ClassHasPrefix reports whether the element's class attribute starts with
// prefix, matching the paper's "elem.class starts with object" test. Classes
// are space-separated lists; the prefix test applies to the full attribute,
// as the weather map emits the discriminating token first.
func (e Element) ClassHasPrefix(prefix string) bool {
	return strings.HasPrefix(e.Class, prefix)
}

// HasClass reports whether cls appears as one of the space-separated class
// tokens. Tokens are split exactly as strings.Fields splits them, Unicode
// spaces included, but walked in place instead of collected into a slice.
func (e Element) HasClass(cls string) bool {
	s := e.Class
	i := 0
	for i < len(s) {
		for i < len(s) {
			n, sp := spaceAt(s, i)
			if !sp {
				break
			}
			i += n
		}
		start := i
		for i < len(s) {
			n, sp := spaceAt(s, i)
			if sp {
				break
			}
			i += n
		}
		if i > start && s[start:i] == cls {
			return true
		}
	}
	return false
}

// spaceAt reports the width of the rune at s[i] and whether
// unicode.IsSpace holds for it. Invalid UTF-8 decodes to RuneError, which
// is not a space, as in strings.Fields.
func spaceAt(s string, i int) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, c == ' ' || '\t' <= c && c <= '\r'
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	return n, unicode.IsSpace(r)
}

// ParsePoints parses an SVG points attribute ("x1,y1 x2,y2 ..." with
// either comma or whitespace separators) into a polygon.
func ParsePoints(s string) (geom.Polygon, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t' || r == '\n' || r == '\r'
	})
	if len(fields)%2 != 0 {
		return nil, &ValueError{Attr: "points", Value: s, Reason: "odd number of coordinates"}
	}
	pg := make(geom.Polygon, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		x, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, &ValueError{Attr: "points", Value: s, Reason: fmt.Sprintf("bad x coordinate %q", fields[i])}
		}
		y, err := strconv.ParseFloat(fields[i+1], 64)
		if err != nil {
			return nil, &ValueError{Attr: "points", Value: s, Reason: fmt.Sprintf("bad y coordinate %q", fields[i+1])}
		}
		pg = append(pg, geom.Pt(x, y))
	}
	return pg, nil
}

// FormatPoints renders a polygon as an SVG points attribute value.
func FormatPoints(pg geom.Polygon) string {
	var b strings.Builder
	for i, p := range pg {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(trimFloat(p.X))
		b.WriteByte(',')
		b.WriteString(trimFloat(p.Y))
	}
	return b.String()
}

// trimFloat formats a coordinate compactly (SVG files are large; the
// dataset's 227 GiB of SVGs motivates shaving digits).
func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
