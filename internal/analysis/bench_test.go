package analysis

import (
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// benchWindow is 64 consecutive 5-minute Europe snapshots of the default
// scenario: one topology, the shape of one archive window between
// evolution events.
func benchWindow(b *testing.B) []*wmap.Map {
	b.Helper()
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		b.Fatal(err)
	}
	from := sim.Scenario().Start.AddDate(0, 4, 0)
	maps := make([]*wmap.Map, 64)
	for i := range maps {
		if maps[i], err = sim.MapAt(wmap.Europe, from.Add(time.Duration(i)*5*time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
	return maps
}

// BenchmarkImbalanceCDFColumns folds the window in 16-snapshot chunks, the
// block size the figures benchmark archives with, decoded up front so only
// the fold is timed.
func BenchmarkImbalanceCDFColumns(b *testing.B) {
	maps := benchWindow(b)
	var chunks []*LinkColumns
	if err := columnize(maps, 16)(func(c *LinkColumns) error {
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	src := ColumnStream(func(yield func(c *LinkColumns) error) error {
		for _, c := range chunks {
			if err := yield(c); err != nil {
				return err
			}
		}
		return nil
	})
	opt := wmap.PaperImbalanceOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ImbalanceCDFColumns(src, opt)
		if err != nil {
			b.Fatal(err)
		}
		if v.IntSets == 0 {
			b.Fatal("no internal parallel sets in the window")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(maps)), "ns/snapshot")
}

func BenchmarkCongestionStudy(b *testing.B) {
	maps := benchWindow(b)
	src := SliceStream(maps)
	opt := DefaultCongestionOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := CongestionStudy(src, opt)
		if err != nil {
			b.Fatal(err)
		}
		if v.Snapshots != len(maps) {
			b.Fatalf("folded %d snapshots, want %d", v.Snapshots, len(maps))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(maps)), "ns/snapshot")
}
