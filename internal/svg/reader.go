package svg

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"ovhweather/internal/geom"
)

// Parse reads an SVG document and returns its elements flattened in
// document order. Group (<g>) elements are not returned themselves; instead
// their class attribute is inherited by children that carry no class of
// their own, which is how the weather map attaches the "object ..." class to
// a router's rect and text.
//
// ReadError wraps a failure of the underlying XML reader: a syntax error,
// unbalanced or mismatched tags, or a document with no <svg> root. These are
// transport-level corruptions (truncated downloads, non-XML payloads) rather
// than weather-map structural violations, which extract reports separately
// as ScanError.
type ReadError struct{ Err error }

func (e *ReadError) Error() string { return "svg: " + e.Err.Error() }

// Unwrap exposes the underlying reader error to errors.Is/As.
func (e *ReadError) Unwrap() error { return e.Err }

func readErrorf(format string, args ...any) error {
	return &ReadError{Err: fmt.Errorf(format, args...)}
}

// ValueError reports a malformed attribute value on an otherwise
// well-formed element — the paper's "malformed attribute values"
// unprocessable-file class.
type ValueError struct {
	Attr   string
	Value  string
	Reason string // optional detail, e.g. "odd number of coordinates"
}

func (e *ValueError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("svg: malformed attribute %s=%q: %s", e.Attr, e.Value, e.Reason)
	}
	return fmt.Sprintf("svg: malformed attribute %s=%q", e.Attr, e.Value)
}

// Parse is the DOM-style entry point; Stream is the streaming equivalent.
//
//lint:ignore wmlint/deadexport the DOM side of the streaming-vs-DOM ablation (DESIGN.md §5)
func Parse(r io.Reader) ([]Element, error) {
	var out []Element
	err := Stream(r, func(e Element) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// streamBufPool recycles the whole-document buffers Stream reads into; the
// worker-pool path parses hundreds of thousands of ~600 KiB snapshots, so
// steady-state processing reuses one buffer per worker.
var streamBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// Stream reads an SVG document and invokes fn for every flat element in
// document order. It buffers the document (snapshots are under a megabyte)
// and runs the hand-rolled fast lexer; any document outside the lexer's
// eligible subset routes through the encoding/xml path of StreamStd
// instead. Both paths emit identical element sequences and the same
// ReadError/ValueError taxonomy.
//
// A non-nil error from fn aborts the scan and is returned verbatim.
// Emitted elements never alias Stream's internal buffers and stay valid
// after Stream returns.
func Stream(r io.Reader, fn func(Element) error) error {
	bp := streamBufPool.Get().(*[]byte)
	buf, err := readAllInto(*bp, r)
	*bp = buf
	if err != nil {
		streamBufPool.Put(bp)
		return &ReadError{Err: err}
	}
	err = StreamBytes(buf, fn)
	streamBufPool.Put(bp)
	return err
}

// StreamStd is Stream over encoding/xml: the differential reference the
// fast lexer is fuzzed against, the ablation baseline, and the fallback for
// documents outside the lexer's subset (non-ASCII bytes, comments, CDATA,
// DOCTYPE).
func StreamStd(r io.Reader, fn func(Element) error) error {
	dec := xml.NewDecoder(r)
	// Weather-map files occasionally carry latin-1 text; pass bytes through
	// rather than failing on charset lookups (the subset we parse is ASCII).
	dec.CharsetReader = func(charset string, input io.Reader) (io.Reader, error) {
		return input, nil
	}

	type frame struct {
		tag   Tag
		class string
	}
	var stack []frame
	inheritedClass := func() string {
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].class != "" {
				return stack[i].class
			}
		}
		return ""
	}

	var pending *Element // open rect/text/polygon awaiting EndElement / text
	sawRoot := false

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if !sawRoot {
				return readErrorf("document contains no <svg> root")
			}
			return nil
		}
		if err != nil {
			return &ReadError{Err: err}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := Tag(t.Name.Local)
			if name == "svg" {
				sawRoot = true
			}
			attrs := attrMap(t.Attr)
			class := attrs["class"]
			switch name {
			case TagGroup:
				stack = append(stack, frame{tag: name, class: class})
				continue
			case TagRect:
				e, err := rectElement(attrs)
				if err != nil {
					return err
				}
				if e.Class == "" {
					e.Class = inheritedClass()
				}
				pending = &e
			case TagText:
				e, err := textElement(attrs)
				if err != nil {
					return err
				}
				if e.Class == "" {
					e.Class = inheritedClass()
				}
				pending = &e
			case TagPolygon:
				pts, err := ParsePoints(attrs["points"])
				if err != nil {
					return err
				}
				e := Element{Tag: TagPolygon, Class: class, ID: attrs["id"], Fill: attrs["fill"], Points: pts}
				if e.Class == "" {
					e.Class = inheritedClass()
				}
				pending = &e
			case TagLine:
				// Decorative; skipped like every other unknown element, but we
				// track it on the stack symmetry below.
				pending = nil
			default:
				pending = nil
			}
			stack = append(stack, frame{tag: name})
		case xml.EndElement:
			name := Tag(t.Name.Local)
			if len(stack) == 0 {
				return readErrorf("unbalanced </%s>", name)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.tag != name {
				return readErrorf("mismatched </%s>, open element is <%s>", name, top.tag)
			}
			if pending != nil && pending.Tag == name {
				if err := fn(*pending); err != nil {
					return err
				}
				pending = nil
			}
		case xml.CharData:
			if pending != nil && pending.Tag == TagText {
				pending.Text += strings.TrimSpace(string(t))
			}
		}
	}
}

func attrMap(attrs []xml.Attr) map[string]string {
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Name.Local] = a.Value
	}
	return m
}

func rectElement(attrs map[string]string) (Element, error) {
	x, err := floatAttr(attrs, "x")
	if err != nil {
		return Element{}, err
	}
	y, err := floatAttr(attrs, "y")
	if err != nil {
		return Element{}, err
	}
	w, err := floatAttr(attrs, "width")
	if err != nil {
		return Element{}, err
	}
	h, err := floatAttr(attrs, "height")
	if err != nil {
		return Element{}, err
	}
	return Element{
		Tag:   TagRect,
		Class: attrs["class"],
		ID:    attrs["id"],
		Rect:  geom.RectFromXYWH(x, y, w, h),
	}, nil
}

func textElement(attrs map[string]string) (Element, error) {
	x, err := floatAttr(attrs, "x")
	if err != nil {
		return Element{}, err
	}
	y, err := floatAttr(attrs, "y")
	if err != nil {
		return Element{}, err
	}
	return Element{
		Tag:   TagText,
		Class: attrs["class"],
		ID:    attrs["id"],
		Pos:   geom.Pt(x, y),
	}, nil
}

// floatAttr parses a numeric attribute; absent attributes default to zero,
// matching SVG semantics, but malformed values are reported — the paper
// observed real snapshots with malformed attribute values and counts them
// as unprocessable.
func floatAttr(attrs map[string]string, name string) (float64, error) {
	v, ok := attrs[name]
	if !ok {
		return 0, nil
	}
	// SVG lengths may carry a "px" suffix.
	v = strings.TrimSuffix(strings.TrimSpace(v), "px")
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, &ValueError{Attr: name, Value: attrs[name]}
	}
	return f, nil
}
