package extract

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// doc wraps body fragments in an SVG root.
func doc(body ...string) string {
	return "<svg>" + strings.Join(body, "") + "</svg>"
}

const (
	routerFRA = `<g class="object router"><rect x="10" y="10" width="60" height="18"/><text x="12" y="20">fra-r1</text></g>`
	routerRBX = `<g class="object router"><rect x="200" y="10" width="60" height="18"/><text x="202" y="20">rbx-r1</text></g>`
	// A link between the two routers: arrows base-to-middle, loads, labels.
	linkFragment = `<polygon points="69,19 69,21 120,20"/>` +
		`<polygon points="201,19 201,21 150,20"/>` +
		`<text class="labellink" x="100" y="18">42 %</text>` +
		`<text class="labellink" x="170" y="18">9 %</text>` +
		`<rect class="node" x="74" y="16" width="10" height="8"/>` +
		`<text class="node" x="75" y="22">#1</text>` +
		`<rect class="node" x="186" y="16" width="10" height="8"/>` +
		`<text class="node" x="187" y="22">#1</text>`
)

func TestScanBasic(t *testing.T) {
	res, err := Scan(strings.NewReader(doc(routerFRA, routerRBX, linkFragment)), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routers) != 2 {
		t.Fatalf("routers = %+v", res.Routers)
	}
	if res.Routers[0].Name != "fra-r1" || res.Routers[1].Name != "rbx-r1" {
		t.Errorf("router names = %q, %q", res.Routers[0].Name, res.Routers[1].Name)
	}
	if len(res.Links) != 1 {
		t.Fatalf("links = %+v", res.Links)
	}
	l := res.Links[0]
	if l.Loads[0] != 42 || l.Loads[1] != 9 {
		t.Errorf("loads = %v", l.Loads)
	}
	if len(l.ArrowA) != 3 || len(l.ArrowB) != 3 {
		t.Errorf("arrow points = %d, %d", len(l.ArrowA), len(l.ArrowB))
	}
	if len(res.Labels) != 2 {
		t.Fatalf("labels = %+v", res.Labels)
	}
	if res.Labels[0].Text != "#1" {
		t.Errorf("label text = %q", res.Labels[0].Text)
	}
}

func TestScanErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		frag string
	}{
		{"router text without box", `<g class="object router"><text x="1" y="1">fra-r1</text></g>`, "without a preceding box"},
		{"router box without name", `<g class="object router"><rect x="1" y="1" width="5" height="5"/><text x="1" y="1"></text></g>`, "empty name"},
		{"load without arrows", `<text class="labellink" x="1" y="1">42 %</text>`, "no open arrow pair"},
		{"load after one arrow", `<polygon points="0,0 1,1 2,0"/><text class="labellink" x="1" y="1">42 %</text>`, "no open arrow pair"},
		{"three arrows", `<polygon points="0,0 1,1 2,0"/><polygon points="0,0 1,1 2,0"/><polygon points="0,0 1,1 2,0"/>`, "third arrow"},
		{"bad load text", `<polygon points="0,0 1,1 2,0"/><polygon points="3,0 4,1 5,0"/><text class="labellink" x="1" y="1">forty %</text>`, "unparsable load"},
		{"load out of range", `<polygon points="0,0 1,1 2,0"/><polygon points="3,0 4,1 5,0"/><text class="labellink" x="1" y="1">142 %</text>`, "outside [0, 100]"},
		{"negative load", `<polygon points="0,0 1,1 2,0"/><polygon points="3,0 4,1 5,0"/><text class="labellink" x="1" y="1">-3 %</text>`, "outside [0, 100]"},
		{"degenerate arrow", `<polygon points="0,0 1,1"/>`, "arrow polygon with 2 points"},
		{"incomplete link at EOF", `<polygon points="0,0 1,1 2,0"/><polygon points="3,0 4,1 5,0"/><text class="labellink" x="1" y="1">10 %</text>`, "incomplete link"},
		{"unnamed router at EOF", `<g class="object router"><rect x="1" y="1" width="5" height="5"/></g>`, "unnamed router box"},
		{"textless label at EOF", `<rect class="node" x="1" y="1" width="5" height="5"/>`, "textless label"},
		{"unnamed router mid-document", `<g class="object router"><rect x="1" y="1" width="5" height="5"/></g>` + routerFRA, "unnamed router box"},
		{"textless label mid-document", `<rect class="node" x="1" y="1" width="5" height="5"/><rect class="node" x="9" y="1" width="5" height="5"/><text class="node" x="9" y="1">#1</text>`, "textless label"},
	}
	for _, c := range cases {
		_, err := Scan(strings.NewReader(doc(c.body)), ScanOptions{})
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.frag)
		}
	}
}

func TestScanIgnoresDecorations(t *testing.T) {
	res, err := Scan(strings.NewReader(doc(
		`<line class="decor" x1="0" y1="0" x2="5" y2="5" stroke="red"/>`,
		`<text class="title" x="0" y="0">Europe</text>`,
		routerFRA, routerRBX, linkFragment,
	)), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routers) != 2 || len(res.Links) != 1 {
		t.Errorf("decorations leaked into scan: %+v", res)
	}
}

func TestParseLoad(t *testing.T) {
	good := map[string]wmap.Load{
		"42 %": 42, "0 %": 0, "100 %": 100, "7%": 7, "  55 % ": 55,
	}
	for in, want := range good {
		got, err := ParseLoad(in)
		if err != nil || got != want {
			t.Errorf("ParseLoad(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "%", "abc %", "101 %", "-1 %", "4 2 %"} {
		if _, err := ParseLoad(in); err == nil {
			t.Errorf("ParseLoad(%q) should fail", in)
		}
	}
}

func TestExtractSVGRejectsEmpty(t *testing.T) {
	if _, err := ExtractSVG(strings.NewReader(`<svg><line x1="0" y1="0" x2="1" y2="1"/></svg>`), wmap.Europe, time.Time{}, DefaultOptions()); err == nil {
		t.Error("empty weather map should be rejected")
	}
	if _, err := ExtractSVG(strings.NewReader(doc(routerFRA, routerRBX, linkFragment)), wmap.Europe, time.Time{}, DefaultOptions()); err != nil {
		t.Errorf("complete doc rejected: %v", err)
	}
}

func TestScanMalformedSVG(t *testing.T) {
	if _, err := Scan(strings.NewReader(`<svg><rect class="node" x="NaNpx," width="bogus" height="9"/></svg>`), ScanOptions{}); err == nil {
		t.Error("malformed attribute should fail the scan")
	}
	if _, err := Scan(strings.NewReader(`<svg><polygon points="1,2 3"/></svg>`), ScanOptions{}); err == nil {
		t.Error("odd points should fail the scan")
	}
	if _, err := Scan(strings.NewReader(`not xml`), ScanOptions{}); err == nil {
		t.Error("non-XML should fail the scan")
	}
}

func TestScanVerifyColors(t *testing.T) {
	// A healthy document: colors agree with the loads.
	good := doc(routerFRA, routerRBX,
		`<polygon points="69,19 69,21 120,20" fill="`+wmap.LoadColor(42)+`"/>`,
		`<polygon points="201,19 201,21 150,20" fill="`+wmap.LoadColor(9)+`"/>`,
		`<text class="labellink" x="100" y="18">42 %</text>`,
		`<text class="labellink" x="170" y="18">9 %</text>`,
		`<rect class="node" x="74" y="16" width="10" height="8"/>`,
		`<text class="node" x="75" y="22">#1</text>`,
		`<rect class="node" x="186" y="16" width="10" height="8"/>`,
		`<text class="node" x="187" y="22">#1</text>`,
	)
	if _, err := Scan(strings.NewReader(good), ScanOptions{VerifyColors: true}); err != nil {
		t.Fatalf("consistent document rejected: %v", err)
	}

	// Corrupted: a 42 % load drawn in the disabled-gray band.
	bad := strings.Replace(good, wmap.LoadColor(42), wmap.LoadColor(0), 1)
	_, err := Scan(strings.NewReader(bad), ScanOptions{VerifyColors: true})
	if err == nil || !strings.Contains(err.Error(), "disagrees with its arrow color") {
		t.Errorf("err = %v, want color disagreement", err)
	}

	// The same corrupted document passes without the option (and with
	// foreign colors under the option).
	if _, err := Scan(strings.NewReader(bad), ScanOptions{}); err != nil {
		t.Errorf("default scan should not check colors: %v", err)
	}
	foreign := strings.Replace(good, wmap.LoadColor(42), "#0000aa", 1)
	if _, err := Scan(strings.NewReader(foreign), ScanOptions{VerifyColors: true}); err != nil {
		t.Errorf("foreign palette should pass: %v", err)
	}
}

// The renderer's output always satisfies the color cross-check.
func TestRenderedDocumentsPassColorCheck(t *testing.T) {
	// Covered end-to-end in the render round-trip tests; here assert the
	// invariant directly at the wmap level for every displayable load.
	for i := 0; i <= 100; i++ {
		l := wmap.Load(i)
		if !wmap.ColorMatchesLoad(wmap.LoadColor(l), l) {
			t.Fatalf("palette inconsistent at %d", l)
		}
	}
}

// TestFullScanAllocs bounds the allocations of a full scan of the Europe
// map into a warm ScanResult, template store included: the lexer's polygon
// arena and a handful of fixed costs, nothing per element.
func TestFullScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled lexer")
	}
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := sim.SnapshotAt(sc.End)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := render.Render(&buf, maps[0], render.Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var res ScanResult
	scan := func() {
		res.Reset()
		if err := scanFull(&res, data, ScanOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Fill every template slot, so stores recycle an evicted template.
	for i := 0; i <= maxTemplates; i++ {
		scan()
	}
	if len(res.Links) != len(maps[0].Links) {
		t.Fatalf("links = %d, want %d", len(res.Links), len(maps[0].Links))
	}
	if allocs := testing.AllocsPerRun(10, scan); allocs > 50 {
		t.Errorf("full Europe scan allocates %.0f times, want <= 50", allocs)
	} else {
		t.Logf("full Europe scan: %.0f allocations", allocs)
	}
}
