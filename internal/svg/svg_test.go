package svg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ovhweather/internal/geom"
)

func TestParsePoints(t *testing.T) {
	pg, err := ParsePoints("0,0 10,0 5,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != 3 || !pg[2].Eq(geom.Pt(5, 8)) {
		t.Errorf("pg = %v", pg)
	}
	// Whitespace-only separators are legal SVG too.
	pg2, err := ParsePoints("0 0 10 0 5 8")
	if err != nil {
		t.Fatal(err)
	}
	if len(pg2) != 3 {
		t.Errorf("pg2 = %v", pg2)
	}
}

func TestParsePointsErrors(t *testing.T) {
	for _, s := range []string{"1,2 3", "a,b", "1,2 3,x"} {
		if _, err := ParsePoints(s); err == nil {
			t.Errorf("ParsePoints(%q) should error", s)
		}
	}
}

func TestFormatPointsRoundTrip(t *testing.T) {
	f := func(coords []int16) bool {
		if len(coords)%2 != 0 {
			coords = coords[:len(coords)-len(coords)%2]
		}
		pg := make(geom.Polygon, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pg = append(pg, geom.Pt(float64(coords[i]), float64(coords[i+1])))
		}
		s := FormatPoints(pg)
		back, err := ParsePoints(s)
		if err != nil {
			return len(pg) == 0 && s == ""
		}
		if len(back) != len(pg) {
			return false
		}
		for i := range pg {
			if !back[i].Eq(pg[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {1, "1"}, {1.5, "1.5"}, {1.25, "1.25"}, {1.257, "1.26"}, {-3.10, "-3.1"},
	}
	for _, c := range cases {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	e := Element{Class: "object router highlight"}
	if !e.ClassHasPrefix("object") {
		t.Error("ClassHasPrefix(object) should be true")
	}
	if e.ClassHasPrefix("router") {
		t.Error("ClassHasPrefix(router) should be false (prefix of full attr)")
	}
	if !e.HasClass("router") || !e.HasClass("highlight") || !e.HasClass("object") {
		t.Error("HasClass token lookup failed")
	}
	if e.HasClass("high") {
		t.Error("HasClass should not match token prefixes")
	}

	// HasClass walks tokens in place; it must split exactly as
	// strings.Fields does, Unicode spaces and invalid UTF-8 included.
	ref := func(class, cls string) bool {
		for _, tok := range strings.Fields(class) {
			if tok == cls {
				return true
			}
		}
		return false
	}
	pieces := []string{"a", "b", "ab", "link", "labellink", " ", "\t", "\n", "\v", "\f", "\r",
		"\u0085", "\u00a0", "\u2003", "\u3000", "\u200b", "\xff", "\xc2", "é", ""}
	gen := func(r *rand.Rand, n int) string {
		var b strings.Builder
		for i := r.Intn(n + 1); i > 0; i-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		class := gen(r, 8)
		cls := gen(r, 2)
		if fields := strings.Fields(class); len(fields) > 0 && r.Intn(2) == 0 {
			cls = fields[r.Intn(len(fields))]
		}
		if got, want := (Element{Class: class}).HasClass(cls), ref(class, cls); got != want {
			t.Logf("HasClass(%q) on class %q = %v, strings.Fields says %v", cls, class, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestWriterProducesParsableDocument(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 800, 600)
	w.BeginGroup("object router")
	w.Rect(geom.RectFromXYWH(10, 20, 60, 18), "", "#fff")
	w.Text(geom.Pt(12, 33), "", "fra-fr5-pb6-nc5")
	w.EndGroup()
	w.Polygon(geom.Polygon{geom.Pt(0, 0), geom.Pt(10, 4), geom.Pt(0, 8)}, "link", "#0f0")
	w.Polygon(geom.Polygon{geom.Pt(40, 0), geom.Pt(30, 4), geom.Pt(40, 8)}, "link", "#0f0")
	w.Text(geom.Pt(15, 4), "labellink", "42 %")
	w.Text(geom.Pt(25, 4), "labellink", "9 %")
	w.Rect(geom.RectFromXYWH(18, 0, 8, 8), "node", "#fff")
	w.Text(geom.Pt(19, 6), "node", "#1")
	// A decorative line the parser must skip as an unknown element.
	w.Raw(`<line class="decor" x1="0" y1="100" x2="800" y2="100" stroke="#ccc"/>` + "\n")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	elems, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// line elements are skipped: rect+text (router) + 2 polygons + 2 loads +
	// rect+text (label) = 8.
	if len(elems) != 8 {
		t.Fatalf("got %d elements: %+v", len(elems), elems)
	}
	if elems[0].Tag != TagRect || !elems[0].ClassHasPrefix("object") {
		t.Errorf("elem0 = %+v, want object rect with inherited class", elems[0])
	}
	if elems[1].Tag != TagText || elems[1].Text != "fra-fr5-pb6-nc5" || !elems[1].ClassHasPrefix("object") {
		t.Errorf("elem1 = %+v", elems[1])
	}
	if elems[2].Tag != TagPolygon || len(elems[2].Points) != 3 {
		t.Errorf("elem2 = %+v", elems[2])
	}
	if elems[4].Text != "42 %" || elems[4].Class != "labellink" {
		t.Errorf("elem4 = %+v", elems[4])
	}
	if elems[6].Tag != TagRect || elems[6].Class != "node" {
		t.Errorf("elem6 = %+v", elems[6])
	}
	if elems[7].Text != "#1" {
		t.Errorf("elem7 = %+v", elems[7])
	}
}

func TestWriterEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 100, 100)
	w.Text(geom.Pt(0, 0), "node", `<&>"'`)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	elems, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 1 || elems[0].Text != `<&>"'` {
		t.Errorf("escaped text round trip = %+v", elems)
	}
}

func TestWriterUnbalancedGroups(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 10, 10)
	w.BeginGroup("g1")
	if err := w.Close(); err == nil {
		t.Error("Close with open group should error")
	}

	w2 := NewWriter(&buf, 10, 10)
	w2.EndGroup()
	if w2.Close() == nil {
		t.Error("EndGroup without BeginGroup should error")
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		`<svg><rect x="bogus" width="1" height="1"/></svg>`,
		`<svg><polygon points="1,2 3"/></svg>`,
		`<svg><rect x="1" y="1" width="1" height="1">`,
		``,
		`not xml at all`,
	}
	for _, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) should error", doc)
		}
	}
}

func TestParseMissingAttributesDefaultZero(t *testing.T) {
	elems, err := Parse(strings.NewReader(`<svg><rect class="node"/><text class="node">x</text></svg>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 2 {
		t.Fatalf("elems = %+v", elems)
	}
	if !elems[0].Rect.Min.Eq(geom.Pt(0, 0)) {
		t.Errorf("default rect = %+v", elems[0].Rect)
	}
}

func TestParseNestedGroupClassInheritance(t *testing.T) {
	doc := `<svg>
	  <g class="outer">
	    <g class="object peering">
	      <rect x="0" y="0" width="5" height="5"/>
	      <text x="1" y="4">ARELION</text>
	    </g>
	    <rect x="9" y="9" width="1" height="1"/>
	  </g>
	</svg>`
	elems, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 3 {
		t.Fatalf("elems = %+v", elems)
	}
	if elems[0].Class != "object peering" || elems[1].Class != "object peering" {
		t.Errorf("inner inheritance: %q / %q", elems[0].Class, elems[1].Class)
	}
	if elems[2].Class != "outer" {
		t.Errorf("outer inheritance: %q", elems[2].Class)
	}
}

func TestParseOwnClassBeatsInherited(t *testing.T) {
	doc := `<svg><g class="object router"><text class="labellink" x="0" y="0">42 %</text></g></svg>`
	elems, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if elems[0].Class != "labellink" {
		t.Errorf("class = %q, want labellink", elems[0].Class)
	}
}

func TestStreamAbort(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 10, 10)
	for i := 0; i < 5; i++ {
		w.Rect(geom.RectFromXYWH(float64(i), 0, 1, 1), "node", "#fff")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	sentinel := bytes.ErrTooLarge
	err := Stream(&buf, func(Element) error {
		count++
		if count == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestWriterRawAllowsInvalidOutput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 10, 10)
	w.Raw(`<rect x="oops />` + "\n")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(&buf); err == nil {
		t.Error("document with raw garbage should not parse")
	}
}

func TestParsePreservesDocumentOrder(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 10, 10)
	for i := 0; i < 10; i++ {
		w.Text(geom.Pt(float64(i), 0), "node", string(rune('a'+i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	elems, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range elems {
		if e.Text != string(rune('a'+i)) {
			t.Fatalf("order violated at %d: %q", i, e.Text)
		}
	}
}
