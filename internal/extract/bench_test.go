package extract_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

var (
	europeOnce sync.Once
	europe     *wmap.Map
	europeRes  *extract.ScanResult
)

// europeScan is the scan of the default scenario's final Europe map,
// rendered once per test binary.
func europeScan(b *testing.B) (*wmap.Map, *extract.ScanResult) {
	b.Helper()
	europeOnce.Do(func() {
		sc := netsim.DefaultScenario()
		sim, err := netsim.New(sc)
		if err != nil {
			panic(err)
		}
		if europe, err = sim.MapAt(wmap.Europe, sc.End); err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := render.Render(&buf, europe, render.Options{}); err != nil {
			panic(err)
		}
		if europeRes, err = extract.Scan(&buf, extract.ScanOptions{}); err != nil {
			panic(err)
		}
	})
	return europe, europeRes
}

// BenchmarkAblationAttributionSearch compares the grid-indexed
// closest-intersecting-box search of Attribute against the paper's literal
// exhaustive formulation (the test reference), which tests every box
// against every link line. Both must attribute the rendered map before
// timing; TestPrunedMatchesExhaustiveFullScale holds them equal.
func BenchmarkAblationAttributionSearch(b *testing.B) {
	m, res := europeScan(b)
	for _, arm := range []struct {
		name      string
		attribute func(*extract.ScanResult, wmap.MapID, time.Time, extract.Options) (*wmap.Map, error)
	}{
		{"grid-indexed", extract.Attribute},
		{"exhaustive", extract.AttributeExhaustive},
	} {
		b.Run(arm.name, func(b *testing.B) {
			got, err := arm.attribute(res, m.ID, m.Time, extract.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if !slices.Equal(got.Links, m.Links) {
				b.Fatal("attribution differs from the rendered map")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arm.attribute(res, m.ID, m.Time, extract.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLabelConsumption compares Algorithm 2 with and without
// the label-consumption rule (line 9). dup-labels counts the label boxes
// the variant without consumption assigns twice: 0 on generated maps,
// whose renderer keeps labels unambiguous, and above 0 on symmetric
// hand-built layouts (TestAttributeLabelConsumedOnce).
func BenchmarkAblationLabelConsumption(b *testing.B) {
	m, res := europeScan(b)
	b.Run("with-consumption", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := extract.Attribute(res, m.ID, m.Time, extract.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-consumption", func(b *testing.B) {
		dups := 0
		for i := 0; i < b.N; i++ {
			dups = extract.CountDuplicateAssignments(res)
		}
		b.ReportMetric(float64(dups), "dup-labels")
	})
}
