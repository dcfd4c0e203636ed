package svg

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// lexAll collects the fast lexer's output for one document.
func lexAll(t *testing.T, doc string) ([]Element, error) {
	t.Helper()
	if !fastEligible([]byte(doc)) {
		t.Fatalf("document unexpectedly ineligible for the fast path: %q", doc)
	}
	var out []Element
	err := LexBytes([]byte(doc), func(e Element) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// stdAll collects the std decoder's output for the same document.
func stdAll(doc string) ([]Element, error) {
	var out []Element
	err := StreamStd(bytes.NewReader([]byte(doc)), func(e Element) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// TestLexerAgainstStdTable pins the fast lexer to the std decoder on the
// constructs the weathermap grammar and its edge cases exercise: entities,
// newline rewriting, processing instructions, namespace prefixes, group
// class inheritance and the pending-element state machine.
func TestLexerAgainstStdTable(t *testing.T) {
	docs := []string{
		// Plain corpus shapes.
		`<?xml version="1.0" encoding="UTF-8"?><svg xmlns="http://www.w3.org/2000/svg" width="100" height="100"><rect class="object" x="1" y="2" width="3" height="4"/></svg>`,
		`<svg><g class="object router"><rect x="0" y="0" width="5" height="5"/><text x="1" y="4">fra-fr5</text></g></svg>`,
		`<svg><polygon class="arrow" points="0,0 1,1 2,0" fill="#00ff00"/><polygon points="3,3 4,4 5,3" fill="#ff0000"/></svg>`,
		`<svg><text class="labellink" x="1" y="1">42 %</text><line x1="0" y1="0" x2="9" y2="9"/></svg>`,
		// Entities in text and attribute values.
		`<svg><text x="0" y="0">&amp;&lt;&gt;&apos;&quot;</text></svg>`,
		`<svg><text x="0" y="0">A&#66;C &#x44; &#101;</text></svg>`,
		`<svg><rect class="a&amp;b" x="&#49;" y="2" width="3" height="4"/></svg>`,
		`<svg><rect x="&#160;5" y="0" width="1" height="1"/></svg>`, // entity NBSP trims like the std path
		`<svg><text x="0" y="0">&#xD800;</text></svg>`,              // surrogate becomes U+FFFD, not an error
		// Newline rewriting and whitespace trimming.
		"<svg><text x='0' y='0'>a\r\nb</text></svg>",
		"<svg><text x='0' y='0'>  spaced  </text></svg>",
		"<svg><text x='0' y='0'>one</text><text x='1' y='1'>two</text></svg>",
		// Processing instructions, including the version check quirks.
		`<?xml version="1.0"?><svg/>`,
		`<?xml version="2.0"?><svg/>`,
		`<?xml aversion="2.0"?><svg/>`, // sloppy substring match: treated as version
		`<?xml-stylesheet href="x"?><svg/>`,
		`<svg><?pi anything goes ?? ?></svg>`,
		`<?xml encoding="latin-1"?><svg/>`, // passthrough CharsetReader never errors
		// Namespace prefixes: local names drive the state machine, raw names
		// match end tags.
		`<s:svg xmlns:s="u"><s:rect x="1" y="1" width="1" height="1"/></s:svg>`,
		`<svg><a:text x="0" y="0">n</a:text></svg>`,
		`<svg:svg><svg:g class="object"><svg:rect width="1" height="1"/></svg:g></svg:svg>`,
		// Pending-element state machine edge cases.
		`<svg><rect x="1" y="1" width="1" height="1"><g class="c"/></rect></svg>`,
		`<svg><text x="0" y="0">a<g>b</g>c</text></svg>`,
		`<svg><rect width="1" height="1"><rect width="2" height="2"/></rect></svg>`,
		`<svg><g class="outer"><g class=""><rect width="1" height="1"/></g></g></svg>`,
		`<svg><rect width="1" height="1" class="own"/></svg>`,
		// Attribute oddities: duplicates (last wins), no space between
		// attributes, single quotes, px suffixes, empty points.
		`<svg><rect x="1" x="2" y="0" width="1" height="1"/></svg>`,
		`<svg><rect x="1"y="2"width="3"height="4"/></svg>`,
		`<svg><rect x = '1' y ='2' width= '3' height='4px'/></svg>`,
		`<svg><polygon points=""/></svg>`,
		`<svg><polygon points="  1,2  3,4  "/></svg>`,
		// Error cases: malformed values (ValueError) and broken XML
		// (ReadError).
		`<svg><rect x="nope" y="2" width="3" height="4"/></svg>`,
		`<svg><polygon points="1,2 3"/></svg>`,
		`<svg><polygon points="1,x 3,4"/></svg>`,
		`<svg><rect x="1"</svg>`,
		`<svg><rect x=1/></svg>`,
		`<svg></rect></svg>`,
		`<svg><rect></svg>`,
		`<svg>]]></svg>`,
		`<svg>&unknown;</svg>`,
		`<svg>&#xFFFFFF;</svg>`,
		`<svg>&#2;</svg>`,
		`<svg/><svg/>`, // multiple roots are fine for the std decoder
		`no markup at all`,
		`<notsvg></notsvg>`,
		`<svg`,
		`<a:b:c/>`,
		`<9tag/>`,
		``,
	}
	for _, doc := range docs {
		fast, fastErr := lexAll(t, doc)
		std, stdErr := stdAll(doc)
		if cf, cs := errClass(fastErr), errClass(stdErr); cf != cs {
			t.Errorf("%q: error class fast=%v (%v) std=%v (%v)", doc, cf, fastErr, cs, stdErr)
			continue
		}
		if !elementsEqual(fast, std) {
			t.Errorf("%q:\n fast: %+v\n  std: %+v", doc, fast, std)
		}
	}
}

// errClass buckets an error into the taxonomy dataset.classify consumes.
func errClass(err error) string {
	switch err.(type) {
	case nil:
		return "ok"
	case *ValueError:
		return "value"
	case *ReadError:
		return "read"
	default:
		return "other:" + err.Error()
	}
}

// elementsEqual compares element sequences with NaN-tolerant float
// comparison (reflect.DeepEqual would report NaN != NaN).
func elementsEqual(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !elementEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func elementEqual(a, b Element) bool {
	if a.Tag != b.Tag || a.Class != b.Class || a.ID != b.ID || a.Text != b.Text || a.Fill != b.Fill {
		return false
	}
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !feq(a.Rect.Min.X, b.Rect.Min.X) || !feq(a.Rect.Min.Y, b.Rect.Min.Y) ||
		!feq(a.Rect.Max.X, b.Rect.Max.X) || !feq(a.Rect.Max.Y, b.Rect.Max.Y) ||
		!feq(a.Pos.X, b.Pos.X) || !feq(a.Pos.Y, b.Pos.Y) {
		return false
	}
	if (a.Points == nil) != (b.Points == nil) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if !feq(a.Points[i].X, b.Points[i].X) || !feq(a.Points[i].Y, b.Points[i].Y) {
			return false
		}
	}
	return true
}

// TestFastEligible pins the pre-scan rule: pure ASCII without markup
// declarations.
func TestFastEligible(t *testing.T) {
	cases := []struct {
		data string
		want bool
	}{
		{`<svg/>`, true},
		{``, true},
		{`<svg><text x="0" y="0">a&#233;b</text></svg>`, true}, // non-ASCII via entity stays eligible
		{"<svg>\xc3\xa9</svg>", false},                         // raw UTF-8
		{"<svg>\xff</svg>", false},                             // raw latin-1
		{`<!DOCTYPE svg><svg/>`, false},
		{`<svg><!-- c --></svg>`, false},
		{`<svg><![CDATA[x]]></svg>`, false},
		{`<svg>a<!b</svg>`, false},
		{`<svg>a!b</svg>`, true}, // bare '!' is fine
	}
	for _, c := range cases {
		if got := fastEligible([]byte(c.data)); got != c.want {
			t.Errorf("fastEligible(%q) = %v, want %v", c.data, got, c.want)
		}
	}

	// The pre-scan reads eight bytes at a time; it must agree with a
	// byte-at-a-time reference wherever the offending byte falls.
	ref := func(data []byte) bool {
		for i, b := range data {
			if b >= 0x80 || b == '!' && i > 0 && data[i-1] == '<' {
				return false
			}
		}
		return true
	}
	alphabet := []byte{'<', '!', 'a', ' ', 0x7f, 0x80, 0xc3, 0xff}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, r.Intn(40))
		for i := range data {
			data[i] = 'a'
			if r.Intn(12) == 0 {
				data[i] = alphabet[r.Intn(len(alphabet))]
			}
		}
		if got, want := fastEligible(data), ref(data); got != want {
			t.Logf("fastEligible(%q) = %v, want %v", data, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestParseFloatFast checks the no-allocation float parser bit-for-bit
// against strconv on accepted inputs and confirms it declines everything it
// cannot parse exactly.
func TestParseFloatFast(t *testing.T) {
	accept := []string{
		"0", "1", "-1", "+1", "42", "3.25", "-3.25", "0.5", ".5", "5.",
		"1234.75", "-0", "007", "999999999999999", "0.000000000001",
		"123456789.123456", "-987654.125",
	}
	for _, s := range accept {
		got, ok := parseFloatFast([]byte(s))
		if !ok {
			t.Errorf("parseFloatFast(%q) declined", s)
			continue
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("strconv rejected %q: %v", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseFloatFast(%q) = %v, strconv = %v", s, got, want)
		}
	}
	decline := []string{
		"", "1e3", "1E3", "0x1p-2", "Inf", "NaN", "nan", "1_000",
		"1234567890123456", // 16 significant digits
		"..", "1..2", "--1", "++1", "+", "-", ".",
		"12345678901234567890",
	}
	for _, s := range decline {
		if _, ok := parseFloatFast([]byte(s)); ok {
			t.Errorf("parseFloatFast(%q) accepted; must fall back to strconv", s)
		}
	}
}

// TestInternCaps checks the intern table's growth bounds: oversized and
// overflow strings are still returned correctly, just not retained.
func TestInternCaps(t *testing.T) {
	l := &lexer{strings: make(map[string]string)}
	long := bytes.Repeat([]byte("x"), maxInternLen+1)
	if got := l.intern(long); got != string(long) {
		t.Fatalf("interned long string corrupted")
	}
	if len(l.strings) != 0 {
		t.Fatalf("oversized string was retained in the intern table")
	}
	short := []byte("object")
	a := l.intern(short)
	b := l.intern(short)
	if a != "object" || b != "object" {
		t.Fatalf("intern corrupted value: %q %q", a, b)
	}
	if len(l.strings) != 1 {
		t.Fatalf("intern table size = %d, want 1", len(l.strings))
	}
}

// TestLexerPoolReuse runs two different documents through the pooled
// StreamBytes path and checks the second parse is not contaminated by the
// first (stale frames, stale pending element, stale arena).
func TestLexerPoolReuse(t *testing.T) {
	docA := []byte(`<svg><g class="object"><rect x="1" y="2" width="3" height="4"/><text x="1" y="4">fra</text></g></svg>`)
	docB := []byte(`<svg><polygon points="0,0 1,1 2,0" fill="#123456"/></svg>`)
	for i := 0; i < 3; i++ {
		for _, doc := range [][]byte{docA, docB} {
			fast, err := ParseBytes(doc)
			if err != nil {
				t.Fatalf("ParseBytes: %v", err)
			}
			std, err := stdAll(string(doc))
			if err != nil {
				t.Fatalf("StreamStd: %v", err)
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("pooled parse diverged on round %d:\n fast: %+v\n  std: %+v", i, fast, std)
			}
		}
	}
}

// TestStreamBytesRetention ensures emitted elements survive mutation of the
// input buffer — the dataset layer reuses read buffers across snapshots.
func TestStreamBytesRetention(t *testing.T) {
	doc := []byte(`<svg><g class="object"><rect x="1" y="2" width="3" height="4"/><text x="5" y="6">name-x</text></g><polygon points="0,0 1,1 2,0" fill="#abcdef"/></svg>`)
	var got []Element
	if err := StreamBytes(doc, func(e Element) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'Z'
	}
	want, err := stdAll(`<svg><g class="object"><rect x="1" y="2" width="3" height="4"/><text x="5" y="6">name-x</text></g><polygon points="0,0 1,1 2,0" fill="#abcdef"/></svg>`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("elements alias the input buffer:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestStreamBytesSpans checks the spans the fast lexer reports: a fill
// span covers the raw value of the fill attribute that won, a text span the
// one character-data run of its element, and anything else, including
// every element of a document routed to encoding/xml, gets zero spans.
func TestStreamBytesSpans(t *testing.T) {
	type got struct {
		e  Element
		sp Spans
	}
	collect := func(doc string) []got {
		var out []got
		if err := StreamBytesSpans([]byte(doc), func(e Element, sp Spans) error {
			out = append(out, got{e, sp})
			return nil
		}); err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		return out
	}
	raw := func(doc string, s Span) string { return doc[s.Start:s.End] }

	doc := `<svg><polygon points="0,0 1,1 2,0" fill="#a" fill='#b&amp;c'/>` +
		`<text class="labellink" x="1" y="1"> 42 % </text>` +
		`<text x="1" y="1">4<g/>2</text>` +
		`<text x="1" y="1"></text><rect x="1" y="1" width="1" height="1" fill="#fff"/></svg>`
	els := collect(doc)
	if len(els) != 5 {
		t.Fatalf("%d elements, want 5", len(els))
	}
	if p := els[0]; p.e.Fill != "#b&c" || raw(doc, p.sp.Fill) != "#b&amp;c" || p.sp.Text.Known() {
		t.Errorf("polygon: fill %q, spans %+v", p.e.Fill, p.sp)
	}
	if l := els[1]; l.e.Text != "42 %" || raw(doc, l.sp.Text) != " 42 % " || l.sp.Fill.Known() {
		t.Errorf("load text: %q, spans %+v", l.e.Text, l.sp)
	}
	if s := els[2]; s.e.Text != "42" || s.sp != (Spans{}) {
		t.Errorf("split text: %q, spans %+v, want none", s.e.Text, s.sp)
	}
	if e := els[3]; e.sp != (Spans{}) {
		t.Errorf("empty text: spans %+v, want none", e.sp)
	}
	if r := els[4]; r.sp != (Spans{}) {
		t.Errorf("rect: spans %+v, want none", r.sp)
	}

	// A comment routes the document to encoding/xml: no spans at all.
	for _, g := range collect(`<svg><!-- c --><polygon points="0,0 1,1 2,0" fill="#a"/><text x="1" y="1">7 %</text></svg>`) {
		if g.sp != (Spans{}) {
			t.Errorf("std path reported spans %+v for %+v", g.sp, g.e)
		}
	}
}
