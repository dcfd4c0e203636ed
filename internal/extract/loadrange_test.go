package extract_test

import (
	"fmt"
	"testing"

	"ovhweather/internal/extract"
)

// TestLoadEntryPointsRejectOutOfRange holds every text entry point that
// makes a wmap.Load to its range check. A load is one byte, so a value
// converted before it is checked would wrap into range: 256 to 0, 300 to
// 44, -1 to 255.
func TestLoadEntryPointsRejectOutOfRange(t *testing.T) {
	for _, s := range []string{"300", "256", "-1", "300 %", "256 %", "-1 %"} {
		if l, err := extract.ParseLoad(s); err == nil {
			t.Errorf("ParseLoad(%q) = %d, want an error", s, l)
		}
	}

	// The template fast path: a primed template must not fill a 300 %
	// hole, and the full scan it falls back to must reject it.
	docs := consecutivePair(t)
	prime, base := docs[0][0], docs[1][0]
	load := loadHoles.FindSubmatchIndex(base)
	doc := append(append(append([]byte(nil), base[:load[2]]...), "300 %"...), base[load[3]:]...)
	var res extract.ScanResult
	if err := extract.ScanBytesInto(&res, prime, extract.ScanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := extract.ScanBytesInto(&res, doc, extract.ScanOptions{}); err == nil {
		t.Error("a 300 % load scanned without error")
	}
	if extract.TemplateHits(&res) != 0 {
		t.Error("the template filled a 300 % load")
	}

	// YAML: load_ab and load_ba are range-checked as integers. The same
	// document with loads of 100 and 0 decodes.
	yamlDoc := func(ab, ba string) []byte {
		return []byte(fmt.Sprintf("map: europe\ntimestamp: 2021-05-01T10:05:00Z\nnodes:\n"+
			"  - name: x-r1\n    kind: router\n  - name: y-r1\n    kind: router\n"+
			"links:\n  - a: x-r1\n    b: y-r1\n    label_a: \"#1\"\n    label_b: \"#1\"\n"+
			"    load_ab: %s\n    load_ba: %s\n", ab, ba))
	}
	if m, err := extract.UnmarshalYAML(yamlDoc("100", "0")); err != nil || m.Links[0].LoadAB != 100 || m.Links[0].LoadBA != 0 {
		t.Fatalf("in-range control document: %v", err)
	}
	for _, v := range []string{"256", "300", "-1"} {
		for _, doc := range [][]byte{yamlDoc(v, "1"), yamlDoc("1", v)} {
			if m, err := extract.UnmarshalYAML(doc); err == nil {
				t.Errorf("load %s decoded to %d/%d, want an error:\n%s", v, m.Links[0].LoadAB, m.Links[0].LoadBA, doc)
			}
		}
	}
}
