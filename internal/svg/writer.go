package svg

import (
	"bufio"
	"fmt"
	"io"

	"ovhweather/internal/geom"
)

// Writer emits an SVG document incrementally. It mirrors the structure of
// the OVH weather-map files: an <svg> root, optional <g> groups carrying
// class attributes, and flat rect/text/polygon children.
//
// Errors are sticky: the first write error is remembered and returned by
// Close; intermediate calls become no-ops after a failure, so call sites
// can chain drawing operations without per-call error checks.
type Writer struct {
	w      *bufio.Writer
	err    error
	open   int // nesting depth of open <g> elements
	closed bool
}

// NewWriter starts an SVG document of the given pixel dimensions on w.
func NewWriter(w io.Writer, width, height float64) *Writer {
	sw := &Writer{w: bufio.NewWriter(w)}
	sw.printf(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	sw.printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" viewBox="0 0 %s %s">`+"\n",
		trimFloat(width), trimFloat(height), trimFloat(width), trimFloat(height))
	return sw
}

func (sw *Writer) printf(format string, args ...any) {
	if sw.err != nil || sw.closed {
		return
	}
	if _, err := fmt.Fprintf(sw.w, format, args...); err != nil {
		sw.err = err
	}
}

// BeginGroup opens a <g> element with the given class.
func (sw *Writer) BeginGroup(class string) {
	sw.printf(`<g class="%s">`+"\n", escape(class))
	sw.open++
}

// EndGroup closes the innermost open <g>. Closing with no open group is an
// error surfaced through Close.
func (sw *Writer) EndGroup() {
	if sw.open == 0 {
		if sw.err == nil {
			sw.err = fmt.Errorf("svg: EndGroup without matching BeginGroup")
		}
		return
	}
	sw.printf("</g>\n")
	sw.open--
}

// Rect draws an axis-aligned rectangle with the given class and fill.
func (sw *Writer) Rect(r geom.Rect, class, fill string) {
	sw.printf(`<rect class="%s" x="%s" y="%s" width="%s" height="%s" fill="%s"/>`+"\n",
		escape(class), trimFloat(r.Min.X), trimFloat(r.Min.Y),
		trimFloat(r.W()), trimFloat(r.H()), escape(fill))
}

// Text draws a text element anchored at p.
func (sw *Writer) Text(p geom.Point, class, content string) {
	sw.printf(`<text class="%s" x="%s" y="%s">%s</text>`+"\n",
		escape(class), trimFloat(p.X), trimFloat(p.Y), escape(content))
}

// Polygon draws a filled polygon.
func (sw *Writer) Polygon(pg geom.Polygon, class, fill string) {
	sw.printf(`<polygon class="%s" points="%s" fill="%s"/>`+"\n",
		escape(class), FormatPoints(pg), escape(fill))
}

// Raw writes a preformatted fragment verbatim. The fault injector uses it to
// produce the malformed documents the paper reports in its unprocessed-file
// accounting.
func (sw *Writer) Raw(s string) { sw.printf("%s", s) }

// Flush writes buffered output without closing the document. The fault
// injector uses it to emit deliberately truncated files.
func (sw *Writer) Flush() error {
	if err := sw.w.Flush(); err != nil && sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// Close ends the document and flushes. It reports the first error from any
// prior operation, unbalanced groups included.
func (sw *Writer) Close() error {
	if sw.closed {
		return sw.err
	}
	if sw.open != 0 && sw.err == nil {
		sw.err = fmt.Errorf("svg: %d unclosed group(s) at Close", sw.open)
	}
	sw.printf("</svg>\n")
	sw.closed = true
	if err := sw.w.Flush(); err != nil && sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// escape replaces the five XML-reserved characters.
func escape(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			b = appendLazy(b, s, i, "&amp;")
		case '<':
			b = appendLazy(b, s, i, "&lt;")
		case '>':
			b = appendLazy(b, s, i, "&gt;")
		case '"':
			b = appendLazy(b, s, i, "&quot;")
		case '\'':
			b = appendLazy(b, s, i, "&apos;")
		default:
			if b != nil {
				b = append(b, c)
			}
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// appendLazy defers allocation until the first reserved character is seen.
func appendLazy(b []byte, s string, i int, repl string) []byte {
	if b == nil {
		b = append(b, s[:i]...)
	}
	return append(b, repl...)
}
