package analysis

import (
	"errors"
	"fmt"
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

// viewsOf returns maps as a cursor's map views carry them: every map's Topo
// set to one interned topology, so folds that resolve a topology once per
// skeleton see the pointer and skip the row compare.
func viewsOf(b *testing.B, maps []*wmap.Map) []*wmap.Map {
	b.Helper()
	topo := maps[0].Topology()
	views := make([]*wmap.Map, len(maps))
	for i, m := range maps {
		if !topo.Matches(m) {
			b.Fatalf("snapshot %d leaves the window's topology", i)
		}
		v := *m
		v.Topo = topo
		views[i] = &v
	}
	return views
}

// streamArms runs bench once per stream a fold is fed in practice: "maps",
// plain snapshots, and "view", the same snapshots carrying their interned
// topology as Cursor.MapView hands them out.
func streamArms(b *testing.B, bench func(b *testing.B, maps []*wmap.Map, src Stream)) {
	maps := benchWindow(b)
	b.Run("maps", func(b *testing.B) { bench(b, maps, SliceStream(maps)) })
	b.Run("view", func(b *testing.B) { bench(b, maps, SliceStream(viewsOf(b, maps))) })
}

// benchChunks cuts maps into 16-snapshot chunks, the block size the
// figures benchmark archives with, decoded up front so only the fold is
// timed.
func benchChunks(b *testing.B, maps []*wmap.Map) ColumnStream {
	return chunkStream(b, maps, 16, false)
}

// loadCount is the number of directed load observations in maps.
func loadCount(maps []*wmap.Map) int {
	n := 0
	for _, m := range maps {
		n += 2 * len(m.Links)
	}
	return n
}

// binnedAll checks that the per-group sample counts add up to want.
func binnedAll(samples []int, want int) error {
	got := 0
	for _, n := range samples {
		got += n
	}
	if got != want {
		return fmt.Errorf("binned %d loads, want %d", got, want)
	}
	return nil
}

// benchFold times fold over the window and reports the time per snapshot.
func benchFold(b *testing.B, maps []*wmap.Map, fold func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fold(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(maps)), "ns/snapshot")
}

func BenchmarkImbalanceCDFColumns(b *testing.B) {
	maps := benchWindow(b)
	src := benchChunks(b, maps)
	opt := wmap.PaperImbalanceOptions()
	benchFold(b, maps, func() error { return imbalanceHasSets(ImbalanceCDFColumns(src, opt)) })
}

// BenchmarkImbalanceCDFColumnsTopo is the wmanalyze feeder: the chunks
// carry the block's interned topology, as tsdb.GridChunk does.
func BenchmarkImbalanceCDFColumnsTopo(b *testing.B) {
	maps := benchWindow(b)
	src := chunkStream(b, maps, 16, true)
	opt := wmap.PaperImbalanceOptions()
	benchFold(b, maps, func() error { return imbalanceHasSets(ImbalanceCDFColumns(src, opt)) })
}

// BenchmarkImbalanceCDF is the stream feeder: one-snapshot chunks of map
// views, each carrying its interned topology.
func BenchmarkImbalanceCDF(b *testing.B) {
	maps := benchWindow(b)
	src := SliceStream(viewsOf(b, maps))
	opt := wmap.PaperImbalanceOptions()
	benchFold(b, maps, func() error { return imbalanceHasSets(ImbalanceCDF(src, opt)) })
}

// imbalanceHasSets passes a fold's error on, or fails a view without
// internal parallel sets.
func imbalanceHasSets(v *ImbalanceView, err error) error {
	if err == nil && v.IntSets == 0 {
		err = errors.New("no internal parallel sets in the window")
	}
	return err
}

func BenchmarkHourlyLoads(b *testing.B) {
	streamArms(b, func(b *testing.B, maps []*wmap.Map, src Stream) {
		want := loadCount(maps)
		benchFold(b, maps, func() error {
			v, err := HourlyLoads(src)
			if err != nil {
				return err
			}
			return binnedAll(v.Samples[:], want)
		})
	})
}

func BenchmarkLoadCDF(b *testing.B) {
	streamArms(b, func(b *testing.B, maps []*wmap.Map, src Stream) {
		want := loadCount(maps)
		benchFold(b, maps, func() error {
			v, err := LoadCDF(src)
			if err != nil {
				return err
			}
			if v.Samples != want || len(v.Internal) == 0 || len(v.External) == 0 {
				return fmt.Errorf("%d loads (want %d), %d internal and %d external CDF points",
					v.Samples, want, len(v.Internal), len(v.External))
			}
			return nil
		})
	})
}

func BenchmarkWeeklyLoadsColumns(b *testing.B) {
	maps := benchWindow(b)
	src := benchChunks(b, maps)
	want := loadCount(maps)
	benchFold(b, maps, func() error {
		v, err := WeeklyLoadsColumns(src)
		if err != nil {
			return err
		}
		return binnedAll(v.Samples[:], want)
	})
}

func BenchmarkCongestionStudy(b *testing.B) {
	streamArms(b, func(b *testing.B, maps []*wmap.Map, src Stream) {
		opt := DefaultCongestionOptions()
		benchFold(b, maps, func() error {
			v, err := CongestionStudy(src, opt)
			if err == nil && v.Snapshots != len(maps) {
				err = fmt.Errorf("folded %d snapshots, want %d", v.Snapshots, len(maps))
			}
			return err
		})
	})
}
