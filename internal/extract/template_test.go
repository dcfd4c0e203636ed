package extract_test

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// templateChange is a Europe peering-capacity event of the default
// scenario: the Europe topology differs on either side of it.
var templateChange = time.Date(2020, time.November, 3, 0, 0, 0, 0, time.UTC)

// renderWindow renders all four maps at n consecutive 5-minute ticks from
// start: [tick][map] SVGs.
func renderWindow(tb testing.TB, start time.Time, n int) [][][]byte {
	tb.Helper()
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		tb.Fatal(err)
	}
	scenes := render.NewSceneCache(render.Options{})
	var out [][][]byte
	for k := 0; k < n; k++ {
		maps, err := sim.SnapshotAt(start.Add(time.Duration(k) * 5 * time.Minute))
		if err != nil {
			tb.Fatal(err)
		}
		var row [][]byte
		for _, m := range maps {
			var b bytes.Buffer
			if err := scenes.WriteSVGCached(&b, m); err != nil {
				tb.Fatalf("render %s: %v", m.ID, err)
			}
			row = append(row, b.Bytes())
		}
		out = append(out, row)
	}
	return out
}

var (
	pairOnce sync.Once
	pairDocs [][][]byte // two consecutive ticks of every map
)

// consecutivePair is two consecutive snapshots of every map: [tick][map].
func consecutivePair(tb testing.TB) [][][]byte {
	pairOnce.Do(func() { pairDocs = renderWindow(tb, templateChange.Add(-time.Hour), 2) })
	return pairDocs
}

// fullScan scans data into a fresh ScanResult, which holds no template:
// the reference every template hit must reproduce.
func fullScan(data []byte, opt extract.ScanOptions) (*extract.ScanResult, error) {
	res := new(extract.ScanResult)
	err := extract.ScanBytesInto(res, data, opt)
	return res, err
}

// sameScan compares two scan outcomes: the same error text, or results
// whose routers, links (fills included) and labels are reflect.DeepEqual,
// an empty slice equal to a nil one.
func sameScan(got *extract.ScanResult, gotErr error, want *extract.ScanResult, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("error %v, full scan %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	for _, p := range []struct {
		name      string
		got, want any
		n, m      int
	}{
		{"routers", got.Routers, want.Routers, len(got.Routers), len(want.Routers)},
		{"links", got.Links, want.Links, len(got.Links), len(want.Links)},
		{"labels", got.Labels, want.Labels, len(got.Labels), len(want.Labels)},
	} {
		if p.n == 0 && p.m == 0 || reflect.DeepEqual(p.got, p.want) {
			continue
		}
		if p.n != p.m {
			return fmt.Errorf("%d %s, full scan %d", p.n, p.name, p.m)
		}
		return fmt.Errorf("%s differ from the full scan", p.name)
	}
	return nil
}

// TestTemplateRenderedCorpus scans a window of all four maps across a
// Europe topology change, twice over as a replayed pool, through one
// shared ScanResult. Every result must equal a fresh full scan, and every
// scan of the replay must be a template hit: four maps plus Europe's
// second layout fit the resident set.
func TestTemplateRenderedCorpus(t *testing.T) {
	window := renderWindow(t, templateChange.Add(-15*time.Minute), 6)
	var res extract.ScanResult
	for pass := 0; pass < 2; pass++ {
		before := extract.TemplateHits(&res)
		for k, row := range window {
			for i, data := range row {
				for _, opt := range []extract.ScanOptions{{}, {VerifyColors: true}} {
					err := extract.ScanBytesInto(&res, data, opt)
					want, wantErr := fullScan(data, opt)
					if d := sameScan(&res, err, want, wantErr); d != nil {
						t.Fatalf("pass %d tick %d map %d verify=%v: %v", pass, k, i, opt.VerifyColors, d)
					}
				}
			}
		}
		hits := extract.TemplateHits(&res) - before
		scans := 2 * len(window) * len(window[0])
		t.Logf("pass %d: %d of %d scans hit a template", pass, hits, scans)
		switch {
		case pass == 0 && hits == 0:
			t.Error("no template hits on the first pass")
		case pass == 1 && hits != scans:
			t.Errorf("replay: %d of %d scans hit a template, want all", hits, scans)
		}
	}
}

// TestTemplateHitAllocs alternates two consecutive Europe snapshots
// through one ScanResult: once both templates are warm, a hit allocates
// nothing.
func TestTemplateHitAllocs(t *testing.T) {
	docs := consecutivePair(t)
	a, b := docs[0][0], docs[1][0]
	var res extract.ScanResult
	for _, d := range [][]byte{a, b, a, b} {
		if err := extract.ScanBytesInto(&res, d, extract.ScanOptions{VerifyColors: true}); err != nil {
			t.Fatal(err)
		}
	}
	hits := extract.TemplateHits(&res)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		d := a
		if i%2 == 0 {
			d = b
		}
		if err := extract.ScanBytesInto(&res, d, extract.ScanOptions{VerifyColors: true}); err != nil {
			t.Fatal(err)
		}
	})
	if got := extract.TemplateHits(&res) - hits; got != 21 {
		t.Fatalf("%d of 21 scans hit a template", got)
	}
	if allocs != 0 {
		t.Errorf("template hit allocates %.1f times, want 0", allocs)
	}
}

// TestTemplateFallbacks covers each way a document can differ from its
// template. Every case must match a fresh full scan; the ones marked hit
// must be served by the template, the rest must fall back.
func TestTemplateFallbacks(t *testing.T) {
	docs := consecutivePair(t)
	prime, base := docs[0][0], docs[1][0]
	load := loadHoles.FindSubmatchIndex(base)
	fill := fillHoles.FindSubmatchIndex(base)
	name := routerNames.FindSubmatchIndex(base)
	splice := func(at, end int, s string) []byte {
		out := append([]byte(nil), base[:at]...)
		out = append(out, s...)
		return append(out, base[end:]...)
	}
	cases := []struct {
		name string
		doc  []byte
		hit  bool
	}{
		{"next snapshot", base, true},
		{"longer load", splice(load[2], load[3], "100 %"), true},
		{"shorter load", splice(load[2], load[3], "7%"), true},
		{"padded load", splice(load[2], load[3], "  0042 % "), true},
		{"other palette fill", splice(fill[2], fill[3], "#ABC"), true},
		{"empty fill", splice(fill[2], fill[3], ""), true},
		{"load out of range", splice(load[2], load[3], "101 %"), false},
		{"huge load", splice(load[2], load[3], "99999999999999999999 %"), false},
		{"split load", splice(load[2], load[3], "4 2 %"), false},
		{"empty load", splice(load[2], load[3], ""), false},
		{"signed load", splice(load[2], load[3], "+42 %"), false},
		{"entity in load", splice(load[2], load[3], "4&#50; %"), false},
		{"CR in load", splice(load[2], load[3], "42\r %"), false},
		{"entity in fill", splice(fill[2], fill[3], "#ab&amp;cd"), false},
		{"bare ampersand in fill", splice(fill[2], fill[3], "#ab&cd"), false},
		{"bare ampersand in load", splice(load[2], load[3], "4&2 %"), false},
		{"CR in fill", splice(fill[2], fill[3], "#ab\rcd"), false},
		{"lt in fill", splice(fill[2], fill[3], "#ab<cd"), false},
		{"named fill", splice(fill[2], fill[3], "none"), false},
		{"renamed router", splice(name[2], name[3], "xyz-r9"), false},
		{"same-length rename", splice(name[2], name[2]+1, "Q"), false},
		{"inserted element", splice(load[0], load[0], `<line x1="0" y1="0" x2="1" y2="1"/>`), false},
		{"deleted element", splice(fill[0], bytes.IndexByte(base[fill[0]:], '\n')+fill[0]+1, ""), false},
		{"truncated", base[:len(base)-20], false},
		{"appended", append(append([]byte(nil), base...), "<!-- -->"...), false},
	}
	for _, c := range cases {
		for _, verify := range []bool{false, true} {
			opt := extract.ScanOptions{VerifyColors: verify}
			var res extract.ScanResult
			if err := extract.ScanBytesInto(&res, prime, extract.ScanOptions{}); err != nil {
				t.Fatal(err)
			}
			err := extract.ScanBytesInto(&res, c.doc, opt)
			want, wantErr := fullScan(c.doc, opt)
			if d := sameScan(&res, err, want, wantErr); d != nil {
				t.Errorf("%s (verify=%v): %v", c.name, verify, d)
			}
			hit := extract.TemplateHits(&res) == 1
			if wantHit := c.hit && wantErr == nil; hit != wantHit {
				t.Errorf("%s (verify=%v): template hit = %v, want %v (full scan: %v)", c.name, verify, hit, wantHit, wantErr)
			}
		}
	}
}

// Hole and static-text locators in a rendered document.
var (
	loadHoles   = regexp.MustCompile(`class="labellink"[^>]*>([^<]*)</text>`)
	fillHoles   = regexp.MustCompile(`<polygon[^>]* fill="([^"]*)"`)
	routerNames = regexp.MustCompile(`<text class="" x="[^"]*" y="[^"]*">([^<]+)</text>`)
)

// Payloads the fuzz mutations splice in: valid and invalid hole texts,
// bytes that change how a document lexes, and whole elements.
var (
	fuzzLoads = []string{"0 %", "100 %", "7%", " 55 % ", "0042 %", "", "101 %", "-1 %", "4 2 %",
		"%", "1e2 %", "&#52;2 %", "4\r2 %", "42 %\r", "99999999999999999999 %", "42 %%", "42<", "4&amp;2"}
	fuzzFills = []string{"#abc", "#ABCDEF", "", "none", "#ab&amp;cd", "#ab\rcd", "#ab<cd", "#12345g",
		wmap.LoadColor(0), wmap.LoadColor(50), wmap.LoadColor(95), "#ab\"cd", "#ab]]>cd", "\xff"}
	fuzzBytes = []byte{'<', '&', '"', '>', ']', '!', '\r', '\n', ' ', '%', '#', '0', '9', 'a', 'Z', 0x80, 0}
	fuzzElems = []string{
		`<polygon class="link" points="1,1 2,2 3,1" fill="#fff"/>`,
		`<text class="labellink" x="1" y="1">5 %</text>`,
		`<g class="object router"><rect x="1" y="1" width="2" height="2"/><text x="1" y="1">n</text></g>`,
		`<rect class="node" x="1" y="1" width="2" height="2"/>`,
		`<text class="node" x="1" y="1">#9</text>`,
		`<line x1="0" y1="0" x2="1" y2="1"/>`,
		`<!-- comment -->`,
		`<?pi data?>`,
		`</text>`,
	}
)

// mutate applies a mutation program to doc, three bytes per step: an
// operation, a selector and a payload index. Programs are cut at
// maxMutations steps, since every step searches the whole document.
func mutate(doc, prog []byte) []byte {
	const maxMutations = 8
	if len(prog) > 3*maxMutations {
		prog = prog[:3*maxMutations]
	}
	doc = append([]byte(nil), doc...)
	lines := func() []int {
		var starts []int
		for i, c := range doc {
			if c == '\n' && i+1 < len(doc) {
				starts = append(starts, i+1)
			}
		}
		return starts
	}
	for len(prog) >= 3 {
		op, sel, pay := prog[0], int(prog[1]), int(prog[2])
		prog = prog[3:]
		at := func(n int) int { return (sel*256 + pay) * n / 65536 }
		splice := func(i, j int, s string) {
			doc = append(doc[:i], append([]byte(s), doc[j:]...)...)
		}
		switch op % 8 {
		case 0: // rewrite a load hole
			if m := loadHoles.FindAllSubmatchIndex(doc, -1); len(m) > 0 {
				h := m[sel%len(m)]
				splice(h[2], h[3], fuzzLoads[pay%len(fuzzLoads)])
			}
		case 1: // rewrite a fill hole
			if m := fillHoles.FindAllSubmatchIndex(doc, -1); len(m) > 0 {
				h := m[sel%len(m)]
				splice(h[2], h[3], fuzzFills[pay%len(fuzzFills)])
			}
		case 2: // overwrite a byte anywhere
			if len(doc) > 0 {
				doc[at(len(doc))] = fuzzBytes[int(op/8)%len(fuzzBytes)]
			}
		case 3: // insert an element at a line start
			if ls := lines(); len(ls) > 0 {
				i := ls[at(len(ls))]
				splice(i, i, fuzzElems[int(op/8)%len(fuzzElems)])
			}
		case 4: // delete a line
			if ls := lines(); len(ls) > 1 {
				k := at(len(ls) - 1)
				splice(ls[k], ls[k+1], "")
			}
		case 5: // insert a byte anywhere
			i := at(len(doc) + 1)
			splice(i, i, string(fuzzBytes[int(op/8)%len(fuzzBytes)]))
		case 6: // rename a router: a static text of the same or another length
			if m := routerNames.FindAllSubmatchIndex(doc, -1); len(m) > 0 {
				h := m[sel%len(m)]
				if pay%2 == 0 {
					doc[h[2]] ^= 1
				} else {
					splice(h[2], h[3], "renamed")
				}
			}
		case 7: // truncate
			doc = doc[:at(len(doc)+1)]
		}
	}
	return doc
}

// FuzzTemplateDifferential primes a ScanResult with one rendered snapshot,
// then scans the next snapshot of the same map after a mutation program:
// the outcome must equal a fresh ScanResult's full scan, error text
// included. Mutations hit holes (length-changing, entity- and CR-bearing,
// out-of-range and unparsable loads) and static bytes (renames, inserted
// and deleted elements, stray markup bytes, truncation).
func FuzzTemplateDifferential(f *testing.F) {
	seeds := []struct {
		prog   []byte
		verify bool
	}{
		{nil, false},
		{nil, true},
		{[]byte{0, 3, 1}, false},          // load "100 %"
		{[]byte{0, 9, 6, 0, 10, 3}, true}, // load "101 %", padded load
		{[]byte{0, 2, 11}, false},         // entity in a load
		{[]byte{0, 2, 12}, false},         // CR in a load
		{[]byte{1, 4, 4}, false},          // entity in a fill
		{[]byte{1, 4, 5}, true},           // CR in a fill
		{[]byte{1, 4, 6}, false},          // '<' in a fill
		{[]byte{1, 7, 9}, true},           // palette color of another load
		{[]byte{1, 7, 3}, false},          // fill "none"
		{[]byte{6, 1, 0}, false},          // same-length router rename
		{[]byte{6, 2, 1}, true},           // longer router name
		{[]byte{2, 128, 0}, false},        // '<' mid-document
		{[]byte{2 + 8*5, 40, 0}, false},   // '!' early
		{[]byte{3, 100, 0}, false},        // inserted arrow
		{[]byte{3 + 8*6, 100, 0}, false},  // inserted comment
		{[]byte{3 + 8*5, 200, 0}, true},   // inserted line
		{[]byte{4, 50, 0}, false},         // deleted line
		{[]byte{5 + 8*1, 10, 0}, false},   // inserted '&'
		{[]byte{7, 250, 0}, false},        // truncated
		{[]byte{0, 1, 0, 1, 1, 1, 0, 2, 2}, true},
	}
	for _, s := range seeds {
		for m := uint8(0); m < 4; m++ {
			f.Add(m, s.prog, s.verify)
		}
	}
	f.Fuzz(func(t *testing.T, m uint8, prog []byte, verify bool) {
		docs := consecutivePair(t)
		i := int(m) % len(docs[0])
		var res extract.ScanResult
		if err := extract.ScanBytesInto(&res, docs[0][i], extract.ScanOptions{}); err != nil {
			t.Fatal(err)
		}
		doc := mutate(docs[1][i], prog)
		opt := extract.ScanOptions{VerifyColors: verify}
		err := extract.ScanBytesInto(&res, doc, opt)
		want, wantErr := fullScan(doc, opt)
		if d := sameScan(&res, err, want, wantErr); d != nil {
			t.Fatalf("map %d, program %v: %v", i, prog, d)
		}
	})
}
