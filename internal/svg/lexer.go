package svg

// A hand-rolled streaming lexer for the weathermap SVG subset. The dataset
// is half a terabyte of machine-generated documents that use five tags and a
// handful of attributes; routing every byte through encoding/xml costs an
// allocation-heavy generality the input never exercises. The fast path
// byte-scans an in-memory document with reused scratch buffers, interns the
// heavily repeated class/fill/text strings, and parses coordinates without
// strconv garbage, while reproducing the std decoder's accept/reject
// behaviour and the ReadError/ValueError taxonomy exactly; fuzz_lexer_test.go
// holds the two paths together differentially.
//
// Eligibility is decided before lexing starts: a document qualifies for the
// fast path only if it contains no byte >= 0x80 and no "<!" sequence, so
// comments, CDATA, DOCTYPE directives and non-ASCII names never reach the
// hand-rolled code — StreamBytes silently routes such documents to the std
// decoder instead. Within the eligible set the lexer mirrors encoding/xml's
// Strict-mode semantics: name grammar, entity substitution (the five
// predefined entities plus numeric references), \r/\r\n newline rewriting,
// "]]>" and unescaped-< rejection, character-range validation, processing
// instructions including the <?xml version?> check, and raw-name matching of
// end tags. Error messages may differ in wording; error classes do not.

import (
	"bytes"
	"encoding/binary"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"ovhweather/internal/geom"
)

// fastEligible reports whether the document qualifies for the hand-rolled
// lexer: pure ASCII and free of markup declarations ("<!" opens comments,
// CDATA sections and directives, none of which the weathermap emits). The
// pre-scan is what makes the fast path correct by construction — anything
// outside the subset is decided before the first element is emitted, so the
// std fallback never observes a half-lexed document.
//
//wm:hotpath
func fastEligible(data []byte) bool {
	if bytes.Contains(data, []byte("<!")) {
		return false
	}
	// Eight bytes at a time: any byte >= 0x80 sets its high bit.
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:])&0x8080808080808080 != 0 {
			return false
		}
	}
	for ; i < len(data); i++ {
		if data[i] >= 0x80 {
			return false
		}
	}
	return true
}

// StreamBytes is Stream for an in-memory document: the fast path when the
// document is eligible, the std decoder otherwise.
//
//wm:hotpath
func StreamBytes(data []byte, fn func(Element) error) error {
	if !fastEligible(data) {
		return StreamStd(bytes.NewReader(data), fn)
	}
	return lex(data, fn, nil)
}

// Span is the byte range [Start, End) of a lexed value in its document.
// No value starts at offset 0 (a document opens with '<'), so the zero Span
// means the position is unknown.
type Span struct{ Start, End int }

// Known reports whether the span locates bytes in the document.
func (s Span) Known() bool { return s.Start > 0 }

// Spans locates the document bytes an element's Text and Fill were lexed
// from, before entity and newline resolution.
type Spans struct {
	// Text is the element's character data when it is exactly one run
	// (no tag or processing instruction splits it).
	Text Span
	// Fill is the raw value of the fill attribute that set Fill.
	Fill Span
}

// StreamBytesSpans is StreamBytes that also reports each element's Spans.
// Documents routed to the std decoder report zero Spans.
//
//wm:hotpath
func StreamBytesSpans(data []byte, fn func(Element, Spans) error) error {
	if !fastEligible(data) {
		return StreamStd(bytes.NewReader(data), func(e Element) error { return fn(e, Spans{}) })
	}
	return lex(data, nil, fn)
}

// lex runs a pooled lexer over an eligible document, emitting to exactly
// one of fn and fnSpans.
//
//wm:hotpath
func lex(data []byte, fn func(Element) error, fnSpans func(Element, Spans) error) error {
	l := lexerPool.Get().(*lexer)
	l.emit, l.emitSpans = fn, fnSpans
	err := l.run(data)
	l.release()
	lexerPool.Put(l)
	return err
}

// Intern-table bounds: adversarial documents must not grow a pooled lexer
// without limit, so only short strings are interned and the table stops
// admitting new entries once full. Lookups past the cap still work — they
// just allocate like the std path would.
const (
	maxInternEntries = 1 << 14
	maxInternLen     = 64
)

// arenaBlock is the polygon arena's allocation unit, in points. A weathermap
// arrow has seven points, so one block serves ~145 arrows.
const arenaBlock = 1024

var lexerPool = sync.Pool{
	New: func() any { return &lexer{strings: make(map[string]string, 256)} },
}

// lexAttr is one parsed attribute: the local part of its name and the
// entity-resolved value, both pointing into the document or into the lexer's
// scratch buffer (valid until the next start tag).
type lexAttr struct {
	local    []byte
	value    []byte
	raw      Span // the quoted value's unresolved bytes in the document
	nonASCII bool // value contains entity-decoded runes >= 0x80
}

// lexFrame mirrors one open element: the raw (untranslated, prefix
// included) name for end-tag matching, as encoding/xml matches it, and the
// group class the reader-level state machine inherits from <g> frames.
type lexFrame struct {
	raw   []byte
	class string
}

type lexer struct {
	data []byte
	pos  int

	frames []lexFrame
	attrs  []lexAttr
	buf    []byte // entity/newline-resolved text scratch
	coords []float64

	emit      func(Element) error
	emitSpans func(Element, Spans) error

	pending      Element
	pendingSpans Spans
	hasPending   bool
	textBuf      []byte // accumulated trimmed character data of the pending <text>
	textRuns     int    // character-data runs in textBuf
	sawRoot      bool

	// strings survives across documents through the pool, so class names,
	// fill colors, router names and load percentages are allocated once per
	// process, not once per snapshot.
	strings map[string]string

	// arena backs the polygons of one document. Scan results retain the
	// points beyond the callback, so the arena is never pooled — each
	// document gets fresh blocks and release drops the reference.
	arena geom.Polygon
}

// release drops references to caller-owned memory before the lexer returns
// to the pool. The document buffer may be reused by the caller and the arena
// is retained by emitted elements; the scratch buffers and intern table stay.
func (l *lexer) release() {
	l.data = nil
	l.arena = nil
	l.emit, l.emitSpans = nil, nil
	l.pending = Element{}
	// Frame and attribute entries hold slices of the caller's document
	// buffer beyond the logical length; zero the backing arrays so a pooled
	// lexer never pins a document.
	frames := l.frames[:cap(l.frames)]
	clear(frames)
	attrs := l.attrs[:cap(l.attrs)]
	clear(attrs)
}

//wm:hotpath
func (l *lexer) run(data []byte) error {
	l.data = data
	l.pos = 0
	l.frames = l.frames[:0]
	l.attrs = l.attrs[:0]
	l.hasPending = false
	l.sawRoot = false
	l.arena = nil

	for l.pos < len(l.data) {
		if l.data[l.pos] != '<' {
			if err := l.textRun(); err != nil {
				return err
			}
			continue
		}
		l.pos++
		if l.pos >= len(l.data) {
			return errUnexpectedEOF()
		}
		switch l.data[l.pos] {
		case '/':
			l.pos++
			if err := l.endTag(); err != nil {
				return err
			}
		case '?':
			l.pos++
			if err := l.procInst(); err != nil {
				return err
			}
		case '!':
			// Unreachable: fastEligible routed every "<!" to the std decoder.
			return readErrorf("markup declaration in fast path")
		default:
			if err := l.startTag(); err != nil {
				return err
			}
		}
	}
	if len(l.frames) > 0 {
		return errUnexpectedEOF()
	}
	if !l.sawRoot {
		return readErrorf("document contains no <svg> root")
	}
	return nil
}

func errUnexpectedEOF() error { return readErrorf("unexpected EOF") }

// Name grammar, ASCII slice of encoding/xml's tables: a name is a run of
// isNameByte bytes whose first byte is a name-start byte.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

func isNameStartByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// errNoName is the "readName returned false" sentinel: the caller supplies
// the contextual message, mirroring the std decoder's division of labour.
type errNoNameT struct{}

func (errNoNameT) Error() string { return "no name" }

var errNoName error = errNoNameT{}

// lexNsName scans a namespaced name at the cursor and returns the raw bytes
// plus the local part after the prefix split. Like encoding/xml's nsname, a
// name with more than one colon is rejected, and "a:"/":a" keep the whole
// string as the local part.
//
//wm:hotpath
func (l *lexer) lexNsName() (raw, local []byte, err error) {
	start := l.pos
	if l.pos >= len(l.data) {
		return nil, nil, errUnexpectedEOF()
	}
	if !isNameByte(l.data[l.pos]) {
		return nil, nil, errNoName
	}
	for l.pos < len(l.data) && isNameByte(l.data[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.data) {
		// The std reader probes for the byte after the name and reports EOF.
		return nil, nil, errUnexpectedEOF()
	}
	raw = l.data[start:l.pos]
	if !isNameStartByte(raw[0]) {
		return nil, nil, readErrorf("invalid XML name: %s", raw)
	}
	switch bytes.Count(raw, []byte(":")) {
	case 0:
		local = raw
	case 1:
		i := bytes.IndexByte(raw, ':')
		if i == 0 || i == len(raw)-1 {
			local = raw
		} else {
			local = raw[i+1:]
		}
	default:
		return nil, nil, errNoName
	}
	return raw, local, nil
}

//wm:hotpath
func (l *lexer) space() {
	for l.pos < len(l.data) {
		switch l.data[l.pos] {
		case ' ', '\r', '\n', '\t':
			l.pos++
		default:
			return
		}
	}
}

// tagOf classifies a local element name; unknown tags map to "".
func tagOf(local []byte) Tag {
	switch len(local) {
	case 1:
		if local[0] == 'g' {
			return TagGroup
		}
	case 4:
		switch string(local) {
		case "rect":
			return TagRect
		case "text":
			return TagText
		case "line":
			return TagLine
		}
	case 7:
		if string(local) == "polygon" {
			return TagPolygon
		}
	}
	return ""
}

//wm:hotpath
func (l *lexer) startTag() error {
	raw, local, err := l.lexNsName()
	if err == errNoName {
		return readErrorf("expected element name after <")
	}
	if err != nil {
		return err
	}

	l.attrs = l.attrs[:0]
	l.buf = l.buf[:0]
	selfClose := false
	for {
		l.space()
		if l.pos >= len(l.data) {
			return errUnexpectedEOF()
		}
		c := l.data[l.pos]
		if c == '/' {
			l.pos++
			if l.pos >= len(l.data) {
				return errUnexpectedEOF()
			}
			if l.data[l.pos] != '>' {
				return readErrorf("expected /> in element")
			}
			l.pos++
			selfClose = true
			break
		}
		if c == '>' {
			l.pos++
			break
		}
		_, alocal, err := l.lexNsName()
		if err == errNoName {
			return readErrorf("expected attribute name in element")
		}
		if err != nil {
			return err
		}
		l.space()
		if l.pos >= len(l.data) {
			return errUnexpectedEOF()
		}
		if l.data[l.pos] != '=' {
			return readErrorf("attribute name without = in element")
		}
		l.pos++
		l.space()
		if l.pos >= len(l.data) {
			return errUnexpectedEOF()
		}
		q := l.data[l.pos]
		if q != '"' && q != '\'' {
			return readErrorf("unquoted or missing attribute value in element")
		}
		l.pos++
		vstart := l.pos
		val, nonASCII, err := l.resolveText(int(q))
		if err != nil {
			return err
		}
		// resolveText consumed the closing quote.
		raw := Span{Start: vstart, End: l.pos - 1}
		l.attrs = append(l.attrs, lexAttr{local: alocal, value: val, raw: raw, nonASCII: nonASCII})
	}

	if len(local) == 3 && string(local) == "svg" {
		l.sawRoot = true
	}

	kind := tagOf(local)
	switch kind {
	case TagGroup:
		// Groups carry the class their children inherit; the pending element
		// is deliberately left alone, mirroring the reader's state machine.
		l.frames = append(l.frames, lexFrame{raw: raw, class: l.internAttr("class")})
		if selfClose {
			l.frames = l.frames[:len(l.frames)-1]
		}
		return nil
	case TagRect:
		e, err := l.rectElement()
		if err != nil {
			return err
		}
		l.setPending(e)
	case TagText:
		e, err := l.textElement()
		if err != nil {
			return err
		}
		l.setPending(e)
	case TagPolygon:
		pts, err := l.pointsAttr()
		if err != nil {
			return err
		}
		e := Element{
			Tag:    TagPolygon,
			Class:  l.internAttr("class"),
			ID:     l.internAttr("id"),
			Fill:   l.internAttr("fill"),
			Points: pts,
		}
		l.setPending(e)
		if i := l.attrIndex("fill"); i >= 0 {
			l.pendingSpans.Fill = l.attrs[i].raw
		}
	default:
		// <line>, <svg> and anything unknown clear the pending slot.
		l.hasPending = false
	}
	l.frames = append(l.frames, lexFrame{raw: raw})
	if selfClose {
		l.frames = l.frames[:len(l.frames)-1]
		return l.maybeEmit(kind)
	}
	return nil
}

//wm:hotpath
func (l *lexer) endTag() error {
	raw, local, err := l.lexNsName()
	if err == errNoName {
		return readErrorf("expected element name after </")
	}
	if err != nil {
		return err
	}
	l.space()
	if l.pos >= len(l.data) {
		return errUnexpectedEOF()
	}
	if l.data[l.pos] != '>' {
		return readErrorf("invalid characters between </%s and >", raw)
	}
	l.pos++
	if len(l.frames) == 0 {
		return readErrorf("unexpected end element </%s>", raw)
	}
	top := l.frames[len(l.frames)-1]
	l.frames = l.frames[:len(l.frames)-1]
	if !bytes.Equal(top.raw, raw) {
		// encoding/xml matches end tags against the raw untranslated name.
		return readErrorf("element <%s> closed by </%s>", top.raw, raw)
	}
	return l.maybeEmit(tagOf(local))
}

// procInst skips a processing instruction, applying the std decoder's
// <?xml version?> check (its sloppy substring matching included). The
// encoding pseudo-attribute never errors here because the reader installs a
// passthrough CharsetReader.
func (l *lexer) procInst() error {
	start := l.pos
	if l.pos >= len(l.data) {
		return errUnexpectedEOF()
	}
	if !isNameByte(l.data[l.pos]) {
		return readErrorf("expected target name after <?")
	}
	for l.pos < len(l.data) && isNameByte(l.data[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.data) {
		return errUnexpectedEOF()
	}
	target := l.data[start:l.pos]
	if !isNameStartByte(target[0]) {
		return readErrorf("invalid XML name: %s", target)
	}
	l.space()
	end := bytes.Index(l.data[l.pos:], []byte("?>"))
	if end < 0 {
		return errUnexpectedEOF()
	}
	content := l.data[l.pos : l.pos+end]
	l.pos += end + 2
	if string(target) == "xml" {
		if ver := procInstVal(content, []byte("version=")); len(ver) > 0 && string(ver) != "1.0" {
			return readErrorf("xml: unsupported version %q; only version 1.0 is supported", ver)
		}
	}
	return nil
}

// procInstVal is encoding/xml's procInst on bytes, quirks preserved: the
// parameter is located by substring search, so "aversion='2.0'" matches
// "version=" exactly as the std decoder matches it.
func procInstVal(s, param []byte) []byte {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return nil
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// textRun consumes one character-data run (up to the next '<' or EOF),
// validating it like the std decoder even when no element wants the text.
//
//wm:hotpath
func (l *lexer) textRun() error {
	l.buf = l.buf[:0]
	start := l.pos
	out, _, err := l.resolveText(-1)
	if err != nil {
		return err
	}
	if l.hasPending && l.pending.Tag == TagText {
		l.textBuf = append(l.textBuf, bytes.TrimSpace(out)...)
		l.textRuns++
		l.pendingSpans.Text = Span{Start: start, End: l.pos}
	}
	return nil
}

// resolveText scans character data at the cursor: plain text when quote < 0
// (ends at '<' or EOF), a quoted attribute value otherwise (ends at the
// quote, which is consumed). The returned bytes are either a zero-copy slice
// of the document or a slice of l.buf, valid until l.buf is next reset.
// Entity substitution, \r rewriting, "]]>"/unescaped-< rejection and
// character-range validation replicate encoding/xml's text().
//
//wm:hotpath
func (l *lexer) resolveText(quote int) (out []byte, nonASCII bool, err error) {
	// Fast scan: a run without '&', '\r' or ']' needs no rewriting, so the
	// document bytes are returned directly.
	i := l.pos
	for i < len(l.data) {
		b := l.data[i]
		if b == '&' || b == '\r' || b == ']' {
			return l.resolveTextSlow(quote)
		}
		if b == '<' {
			if quote >= 0 {
				return nil, false, readErrorf("unescaped < inside quoted string")
			}
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b < 0x20 && b != '\t' && b != '\n' {
			return nil, false, readErrorf("illegal character code %U", rune(b))
		}
		i++
	}
	if quote >= 0 && i >= len(l.data) {
		return nil, false, errUnexpectedEOF()
	}
	out = l.data[l.pos:i]
	l.pos = i
	if quote >= 0 {
		l.pos++ // consume the closing quote
	}
	return out, false, nil
}

//wm:hotpath
func (l *lexer) resolveTextSlow(quote int) (out []byte, nonASCII bool, err error) {
	start := len(l.buf)
	var b0, b1 byte
	for {
		if l.pos >= len(l.data) {
			if quote >= 0 {
				return nil, false, errUnexpectedEOF()
			}
			break
		}
		b := l.data[l.pos]
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			return nil, false, readErrorf("unescaped ]]> not in CDATA section")
		}
		if b == '<' {
			if quote >= 0 {
				return nil, false, readErrorf("unescaped < inside quoted string")
			}
			break
		}
		if quote >= 0 && b == byte(quote) {
			l.pos++
			break
		}
		if b == '&' {
			na, err := l.resolveEntity()
			if err != nil {
				return nil, false, err
			}
			nonASCII = nonASCII || na
			b0, b1 = 0, 0
			continue
		}
		l.pos++
		// Unescaped \r and \r\n are rewritten to \n; entity-produced bytes
		// bypass this because b0/b1 track raw input only.
		if b == '\r' {
			l.buf = append(l.buf, '\n')
		} else if b1 == '\r' && b == '\n' {
			// already wrote \n for the \r
		} else {
			l.buf = append(l.buf, b)
		}
		b0, b1 = b1, b
	}
	out = l.buf[start:]
	if err := validateChars(out, nonASCII); err != nil {
		return nil, false, err
	}
	return out, nonASCII, nil
}

// resolveEntity consumes one character reference at the cursor (which points
// at '&') and appends its substitution to l.buf. Only the five predefined
// entities and numeric references resolve; everything else is a syntax
// error, as in Strict mode with no Entity map.
//
//wm:hotpath
func (l *lexer) resolveEntity() (nonASCII bool, err error) {
	l.pos++ // past '&'
	if l.pos >= len(l.data) {
		return false, errUnexpectedEOF()
	}
	if l.data[l.pos] == '#' {
		l.pos++
		base := uint64(10)
		if l.pos < len(l.data) && l.data[l.pos] == 'x' {
			base = 16
			l.pos++
		}
		start := l.pos
		var n uint64
		overflow := false
		for l.pos < len(l.data) {
			c := l.data[l.pos]
			var d uint64
			switch {
			case '0' <= c && c <= '9':
				d = uint64(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = uint64(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				goto digitsDone
			}
			if n > (^uint64(0)-d)/base {
				overflow = true
			} else {
				n = n*base + d
			}
			l.pos++
		}
	digitsDone:
		if l.pos >= len(l.data) {
			return false, errUnexpectedEOF()
		}
		if l.data[l.pos] != ';' {
			return false, readErrorf("invalid character entity &%s", l.data[start-1:l.pos])
		}
		digits := l.pos - start
		l.pos++
		if digits == 0 || overflow || n > utf8.MaxRune {
			return false, readErrorf("invalid character entity &#...;")
		}
		// string(rune(n)) semantics: surrogates silently become U+FFFD, and
		// the character-range validation of the resolved run decides legality.
		r := rune(n)
		l.buf = utf8.AppendRune(l.buf, r)
		return r >= 0x80 || !utf8.ValidRune(r), nil
	}
	start := l.pos
	for l.pos < len(l.data) && isNameByte(l.data[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.data) {
		return false, errUnexpectedEOF()
	}
	if l.data[l.pos] != ';' {
		return false, readErrorf("invalid character entity &%s (no semicolon)", l.data[start:l.pos])
	}
	name := l.data[start:l.pos]
	l.pos++
	var ch byte
	switch string(name) {
	case "lt":
		ch = '<'
	case "gt":
		ch = '>'
	case "amp":
		ch = '&'
	case "apos":
		ch = '\''
	case "quot":
		ch = '"'
	default:
		return false, readErrorf("invalid character entity &%s;", name)
	}
	l.buf = append(l.buf, ch)
	return false, nil
}

// validateChars applies the std decoder's end-of-run character validation.
// Pure-ASCII runs take the byte check; runs with entity-decoded runes walk
// UTF-8 like encoding/xml does.
func validateChars(b []byte, nonASCII bool) error {
	if !nonASCII {
		for _, c := range b {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return readErrorf("illegal character code %U", rune(c))
			}
		}
		return nil
	}
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size == 1 {
			return readErrorf("invalid UTF-8")
		}
		b = b[size:]
		if !isInXMLCharRange(r) {
			return readErrorf("illegal character code %U", r)
		}
	}
	return nil
}

// isInXMLCharRange is encoding/xml's isInCharacterRange: the Char production
// of XML 1.0 §2.2.
func isInXMLCharRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Reader-level element assembly — the same state machine Stream has always
// run on top of the std decoder.

//wm:hotpath
func (l *lexer) setPending(e Element) {
	if e.Class == "" {
		e.Class = l.inheritedClass()
	}
	l.pending = e
	l.pendingSpans = Spans{}
	l.hasPending = true
	l.textBuf = l.textBuf[:0]
	l.textRuns = 0
}

//wm:hotpath
func (l *lexer) maybeEmit(kind Tag) error {
	if !l.hasPending || kind == "" || l.pending.Tag != kind {
		return nil
	}
	if l.pending.Tag == TagText {
		l.pending.Text = l.intern(l.textBuf)
		if l.textRuns != 1 {
			l.pendingSpans.Text = Span{}
		}
	}
	l.hasPending = false
	if l.emitSpans != nil {
		return l.emitSpans(l.pending, l.pendingSpans)
	}
	return l.emit(l.pending)
}

//wm:hotpath
func (l *lexer) inheritedClass() string {
	for i := len(l.frames) - 1; i >= 0; i-- {
		if l.frames[i].class != "" {
			return l.frames[i].class
		}
	}
	return ""
}

// attrRaw returns the resolved value of the named attribute, last occurrence
// winning like the reader's attribute map.
//
//wm:hotpath
func (l *lexer) attrRaw(name string) (val []byte, nonASCII, ok bool) {
	i := l.attrIndex(name)
	if i < 0 {
		return nil, false, false
	}
	return l.attrs[i].value, l.attrs[i].nonASCII, true
}

// attrIndex returns the index of the named attribute's last occurrence, or
// -1.
//
//wm:hotpath
func (l *lexer) attrIndex(name string) int {
	for i := len(l.attrs) - 1; i >= 0; i-- {
		if string(l.attrs[i].local) == name {
			return i
		}
	}
	return -1
}

//wm:hotpath
func (l *lexer) internAttr(name string) string {
	v, _, ok := l.attrRaw(name)
	if !ok {
		return ""
	}
	return l.intern(v)
}

// intern returns a string with b's content, reusing the pooled copy when one
// exists. The map lookup on string(b) compiles to a no-allocation probe.
//
//wm:hotpath
func (l *lexer) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := l.strings[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(l.strings) < maxInternEntries && len(s) <= maxInternLen {
		l.strings[s] = s
	}
	return s
}

//wm:hotpath
func (l *lexer) rectElement() (Element, error) {
	x, err := l.floatAttr("x")
	if err != nil {
		return Element{}, err
	}
	y, err := l.floatAttr("y")
	if err != nil {
		return Element{}, err
	}
	w, err := l.floatAttr("width")
	if err != nil {
		return Element{}, err
	}
	h, err := l.floatAttr("height")
	if err != nil {
		return Element{}, err
	}
	return Element{
		Tag:   TagRect,
		Class: l.internAttr("class"),
		ID:    l.internAttr("id"),
		Rect:  geom.RectFromXYWH(x, y, w, h),
	}, nil
}

//wm:hotpath
func (l *lexer) textElement() (Element, error) {
	x, err := l.floatAttr("x")
	if err != nil {
		return Element{}, err
	}
	y, err := l.floatAttr("y")
	if err != nil {
		return Element{}, err
	}
	return Element{
		Tag:   TagText,
		Class: l.internAttr("class"),
		ID:    l.internAttr("id"),
		Pos:   geom.Pt(x, y),
	}, nil
}

// floatAttr mirrors the reader's floatAttr: absent attributes are zero,
// values are space-trimmed and may carry a "px" suffix, and malformed values
// raise ValueError with the original resolved value.
//
//wm:hotpath
func (l *lexer) floatAttr(name string) (float64, error) {
	v, nonASCII, ok := l.attrRaw(name)
	if !ok {
		return 0, nil
	}
	if nonASCII {
		// Entity-decoded non-ASCII (e.g. &#160;) must trim like
		// strings.TrimSpace; take the exact std route on this rare path.
		s := strings.TrimSuffix(strings.TrimSpace(string(v)), "px")
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, &ValueError{Attr: name, Value: string(v)}
		}
		return f, nil
	}
	b := trimASCIISpace(v)
	if n := len(b); n >= 2 && b[n-2] == 'p' && b[n-1] == 'x' {
		b = b[:n-2]
	}
	f, ok2 := parseFloatFast(b)
	if !ok2 {
		var err error
		f, err = strconv.ParseFloat(string(b), 64)
		if err != nil {
			return 0, &ValueError{Attr: name, Value: string(v)}
		}
	}
	return f, nil
}

// trimASCIISpace trims the ASCII space set strings.TrimSpace would trim
// here; \v and \f cannot survive XML character validation, so ' ', '\t',
// '\n' and '\r' are the only candidates in a lexed value.
func trimASCIISpace(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

var pow10tab = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// parseFloatFast parses the plain decimal forms weathermap coordinates take
// ([+-]?digits[.digits]) without allocating, bit-identical to
// strconv.ParseFloat: an integer mantissa of at most 15 significant digits
// divided by an exact power of ten is correctly rounded (the same exact-
// arithmetic fast path strconv itself uses). Everything else — exponents,
// hex floats, Inf/NaN, underscores, overlong digit runs — reports !ok so the
// caller falls back to strconv.
//
//wm:hotpath
func parseFloatFast(b []byte) (float64, bool) {
	if len(b) == 0 || len(b) > 17 {
		return 0, false
	}
	i := 0
	neg := false
	switch b[0] {
	case '+':
		i = 1
	case '-':
		neg = true
		i = 1
	}
	var mant uint64
	digits, frac := 0, 0
	sawDot, sawDigit := false, false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case '0' <= c && c <= '9':
			sawDigit = true
			mant = mant*10 + uint64(c-'0')
			digits++
			if sawDot {
				frac++
			}
		case c == '.' && !sawDot:
			sawDot = true
		default:
			return 0, false
		}
	}
	if !sawDigit || digits > 15 {
		return 0, false
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10tab[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

// pointsAttr parses the polygon points attribute into the document arena,
// with ParsePoints' exact splitting and error semantics.
//
//wm:hotpath
func (l *lexer) pointsAttr() (geom.Polygon, error) {
	v, nonASCII, _ := l.attrRaw("points")
	if nonASCII {
		return ParsePoints(string(v))
	}
	// ParsePoints rejects an odd coordinate count before parsing any field,
	// so count first to keep error precedence identical.
	fields := 0
	inField := false
	for _, c := range v {
		if pointsSep(c) {
			inField = false
		} else if !inField {
			inField = true
			fields++
		}
	}
	if fields%2 != 0 {
		return nil, &ValueError{Attr: "points", Value: string(v), Reason: "odd number of coordinates"}
	}
	l.coords = l.coords[:0]
	i := 0
	for i < len(v) {
		for i < len(v) && pointsSep(v[i]) {
			i++
		}
		if i >= len(v) {
			break
		}
		start := i
		for i < len(v) && !pointsSep(v[i]) {
			i++
		}
		field := v[start:i]
		f, ok := parseFloatFast(field)
		if !ok {
			var err error
			f, err = strconv.ParseFloat(string(field), 64)
			if err != nil {
				axis := "x"
				if len(l.coords)%2 == 1 {
					axis = "y"
				}
				return nil, &ValueError{
					Attr:   "points",
					Value:  string(v),
					Reason: "bad " + axis + " coordinate " + strconv.Quote(string(field)),
				}
			}
		}
		l.coords = append(l.coords, f)
	}
	pg := l.arenaAlloc(len(l.coords) / 2)
	for j := range pg {
		pg[j] = geom.Pt(l.coords[2*j], l.coords[2*j+1])
	}
	return pg, nil
}

func pointsSep(c byte) bool {
	return c == ' ' || c == ',' || c == '\t' || c == '\n' || c == '\r'
}

// arenaAlloc carves n points out of the document arena, growing it in
// blocks. The returned slice is capacity-clipped so appends by consumers can
// never clobber a neighbouring polygon.
//
//wm:hotpath
func (l *lexer) arenaAlloc(n int) geom.Polygon {
	if n == 0 {
		return geom.Polygon{}
	}
	if len(l.arena)+n > cap(l.arena) {
		size := arenaBlock
		if n > size {
			size = n
		}
		l.arena = make(geom.Polygon, 0, size)
	}
	start := len(l.arena)
	l.arena = l.arena[:start+n]
	return l.arena[start : start+n : start+n]
}

// readAllInto reads r to EOF into buf, reusing its capacity.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
