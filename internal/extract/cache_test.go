package extract_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// scanOf renders m and runs Algorithm 1 on the result.
func scanOf(t *testing.T, m *wmap.Map) *extract.ScanResult {
	t.Helper()
	var buf bytes.Buffer
	if err := render.Render(&buf, m, render.Options{}); err != nil {
		t.Fatalf("render: %v", err)
	}
	res, err := extract.Scan(bytes.NewReader(buf.Bytes()), extract.ScanOptions{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res
}

// yamlOf attributes res without the cache and marshals the result — the
// reference bytes the cached path must reproduce exactly.
func yamlOf(t *testing.T, res *extract.ScanResult, id wmap.MapID, at time.Time, opt extract.Options) []byte {
	t.Helper()
	m, err := extract.Attribute(res, id, at, opt)
	if err != nil {
		t.Fatalf("attribute: %v", err)
	}
	data, err := extract.MarshalYAML(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// cachedYAML attributes res through the cache and marshals the result.
func cachedYAML(t *testing.T, c *extract.AttributionCache, res *extract.ScanResult, id wmap.MapID, at time.Time) []byte {
	t.Helper()
	m, err := c.Attribute(res, id, at)
	if err != nil {
		t.Fatalf("cached attribute: %v", err)
	}
	data, err := extract.MarshalYAML(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestAttributionCacheTimeline is the acceptance check: across a timeline
// with load changes and topology churn, the cached path must produce
// byte-identical YAML to uncached attribution, hitting on load-only changes
// and missing on every geometry change.
func TestAttributionCacheTimeline(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.Europe, sc.End)
	opt := extract.DefaultOptions()
	c := extract.NewAttributionCache(opt)

	// A timeline over one topology: the same map with shifting loads, then
	// churn (a removed link), then the original topology again.
	loadsShifted := func(m *wmap.Map, delta int) *wmap.Map {
		out := m.Clone()
		for i := range out.Links {
			out.Links[i].LoadAB = wmap.Load((int(out.Links[i].LoadAB) + delta) % 101)
			out.Links[i].LoadBA = wmap.Load((int(out.Links[i].LoadBA) + 2*delta) % 101)
		}
		return out
	}
	// Churn drops a link whose endpoints both keep other links, so the
	// churned map still passes the connectivity sanity check.
	churned := base.Clone()
	drop := -1
	for i, l := range churned.Links {
		if churned.Degree(l.A) > 1 && churned.Degree(l.B) > 1 {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("no removable link in the simulated topology")
	}
	churned.Links = append(churned.Links[:drop:drop], churned.Links[drop+1:]...)

	timeline := []*wmap.Map{
		base,                     // miss: cold cache
		loadsShifted(base, 7),    // hit: same geometry, new loads
		loadsShifted(base, 23),   // hit
		churned,                  // miss: a link vanished
		loadsShifted(churned, 5), // hit on the churned topology
		base,                     // miss: single-entry cache was replaced
	}
	wantHits, wantMisses := 3, 3

	for i, m := range timeline {
		at := sc.End.Add(time.Duration(i) * time.Hour)
		res := scanOf(t, m)
		want := yamlOf(t, res, m.ID, at, opt)
		got := cachedYAML(t, c, res, m.ID, at)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: cached YAML diverges from uncached attribution\ncached:\n%s\nuncached:\n%s", i, got, want)
		}
	}
	if c.Hits() != wantHits || c.Misses() != wantMisses {
		t.Errorf("hits=%d misses=%d, want %d/%d", c.Hits(), c.Misses(), wantHits, wantMisses)
	}
}

// TestAttributionCacheGeometrySensitivity checks the invalidation rule
// directly on scanned geometry: any change to names, boxes, arrows or label
// texts must miss; load and fill changes must hit.
func TestAttributionCacheGeometrySensitivity(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.AsiaPacific, sc.End)
	opt := extract.DefaultOptions()
	at := sc.End

	prime := scanOf(t, base)

	mutations := []struct {
		name    string
		mutate  func(*extract.ScanResult)
		wantHit bool
	}{
		{"loads only", func(r *extract.ScanResult) {
			for i := range r.Links {
				r.Links[i].Loads[0] = wmap.Load((int(r.Links[i].Loads[0]) + 13) % 101)
				r.Links[i].Loads[1] = wmap.Load((int(r.Links[i].Loads[1]) + 29) % 101)
			}
		}, true},
		{"fills only", func(r *extract.ScanResult) {
			r.Links[0].Fills = [2]string{"#123456", "#654321"}
		}, true},
		{"router renamed", func(r *extract.ScanResult) {
			r.Routers[0].Name += "x"
		}, false},
		{"router box moved", func(r *extract.ScanResult) {
			r.Routers[0].Box.Min.X += 0.25
		}, false},
		{"arrow point moved", func(r *extract.ScanResult) {
			r.Links[0].ArrowA[0].X += 0.25
		}, false},
		{"label text changed", func(r *extract.ScanResult) {
			r.Labels[0].Text += "!"
		}, false},
		{"label box moved", func(r *extract.ScanResult) {
			r.Labels[0].Box.Max.Y += 0.25
		}, false},
	}

	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			c := extract.NewAttributionCache(opt)
			if _, err := c.Attribute(prime, base.ID, at); err != nil {
				t.Fatalf("prime: %v", err)
			}
			res := scanOf(t, base) // fresh copy of the same geometry
			mut.mutate(res)
			want := yamlOf(t, res, base.ID, at.Add(time.Hour), opt)
			got := cachedYAML(t, c, res, base.ID, at.Add(time.Hour))
			if !bytes.Equal(got, want) {
				t.Fatalf("cached YAML diverges from uncached attribution")
			}
			hit := c.Hits() == 1
			if hit != mut.wantHit {
				t.Errorf("hit=%v, want %v (hits=%d misses=%d)", hit, mut.wantHit, c.Hits(), c.Misses())
			}
		})
	}
}

// TestAttributionCacheErrorNotCached verifies failures leave the previous
// entry in place: broken geometry errors through, and the prior topology
// still hits afterwards.
func TestAttributionCacheErrorNotCached(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.World, sc.End)
	opt := extract.DefaultOptions()
	c := extract.NewAttributionCache(opt)
	at := sc.End

	prime := scanOf(t, base)
	if _, err := c.Attribute(prime, base.ID, at); err != nil {
		t.Fatalf("prime: %v", err)
	}

	broken := scanOf(t, base)
	// Coinciding arrow bases make attribution fail deterministically.
	broken.Links[0].ArrowB = append(broken.Links[0].ArrowB[:0:0], broken.Links[0].ArrowA...)
	if _, err := c.Attribute(broken, base.ID, at.Add(time.Hour)); err == nil {
		t.Fatal("broken geometry attributed without error")
	}

	again := scanOf(t, base)
	want := yamlOf(t, again, base.ID, at.Add(2*time.Hour), opt)
	got := cachedYAML(t, c, again, base.ID, at.Add(2*time.Hour))
	if !bytes.Equal(got, want) {
		t.Fatal("post-error hit diverges from uncached attribution")
	}
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", c.Hits(), c.Misses())
	}
}

// TestAttributionCacheTemplateHits replays rendered ticks of all four maps
// across a Europe topology change through one shared ScanResult, with one
// cache per map. Results filled from a template hit without a geometry
// compare; every attribution must still equal uncached Attribute, and the
// hits and misses must equal those of a cache fed the same documents
// through Scan, which carries no template and compares geometry.
func TestAttributionCacheTemplateHits(t *testing.T) {
	window := renderWindow(t, templateChange.Add(-15*time.Minute), 6)
	opt := extract.DefaultOptions()
	ids := wmap.AllMaps()
	var caches, compared []*extract.AttributionCache
	for range ids {
		caches = append(caches, extract.NewAttributionCache(opt))
		compared = append(compared, extract.NewAttributionCache(opt))
	}
	var res extract.ScanResult
	for pass := 0; pass < 2; pass++ {
		for k, row := range window {
			at := templateChange.Add(time.Duration(pass*len(window)+k) * 5 * time.Minute)
			for i, data := range row {
				if err := extract.ScanBytesInto(&res, data, extract.ScanOptions{}); err != nil {
					t.Fatal(err)
				}
				got, err := caches[i].Attribute(&res, ids[i], at)
				if err != nil {
					t.Fatal(err)
				}
				want, err := extract.Attribute(&res, ids[i], at, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d tick %d %s: cached attribution differs from Attribute", pass, k, ids[i])
				}
				if !extract.CacheTemplateKnown(caches[i]) {
					t.Fatalf("pass %d tick %d %s: cache does not know the scan's template", pass, k, ids[i])
				}
				plain, err := extract.Scan(bytes.NewReader(data), extract.ScanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := compared[i].Attribute(plain, ids[i], at); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, id := range ids {
		c, ref := caches[i], compared[i]
		if c.Hits() != ref.Hits() || c.Misses() != ref.Misses() {
			t.Errorf("%s: %d hits / %d misses, geometry-compared cache %d / %d",
				id, c.Hits(), c.Misses(), ref.Hits(), ref.Misses())
		}
		t.Logf("%s: %d hits / %d misses", id, c.Hits(), c.Misses())
	}
}
