package analysis

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// fuzzBytes reads a fuzz input one byte at a time and, once it runs out,
// goes on with a xorshift stream seeded from the whole input, so a short
// input still describes a full corpus.
type fuzzBytes struct {
	data []byte
	x    uint64
}

func newFuzzBytes(data []byte) *fuzzBytes {
	h := fnv.New64a()
	h.Write(data)
	return &fuzzBytes{data: data, x: h.Sum64() | 1}
}

func (r *fuzzBytes) next() byte {
	if len(r.data) > 0 {
		b := r.data[0]
		r.data = r.data[1:]
		return b
	}
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return byte(r.x >> 32)
}

// intn returns a value in [0, n).
func (r *fuzzBytes) intn(n int) int { return int(r.next()) % n }

// fuzzCorpus is a corpus drawn from r: up to 48 snapshots at a step of
// minutes to most of a day, so hours and weekdays vary, over up to 12
// links between four routers and two peerings. Before each snapshot the
// topology may change: a link added or removed, relabelled, turned round
// (A and B swapped) or moved. Loads are 0, 1, 100 or anything in [0, 100],
// and with outOfRange also 101 and 255. selfLinks allows links from a node
// to itself. It returns the corpus and whether any load is out of range.
func fuzzCorpus(r *fuzzBytes, selfLinks, outOfRange bool) ([]*wmap.Map, bool) {
	routers := []string{"par-g1", "fra-g2", "rbx-g3", "waw-g4"}
	peerings := []string{"AMS-IX", "DE-CIX"}
	names := append(append([]string(nil), routers...), peerings...)
	labels := []string{"#1", "#2", ""}
	link := func() wmap.Link {
		a, b := names[r.intn(len(names))], names[r.intn(len(names))]
		for a == b && !selfLinks {
			b = names[r.intn(len(names))]
		}
		return wmap.Link{A: a, B: b, LabelA: labels[r.intn(len(labels))], LabelB: labels[r.intn(len(labels))]}
	}
	load := func() wmap.Load {
		v := r.next()
		switch v % 16 {
		case 0, 1, 2:
			return 0
		case 3, 4:
			return 1
		case 5:
			return 100
		case 6:
			if outOfRange {
				return 101
			}
		case 7:
			if outOfRange {
				return 255
			}
		}
		return wmap.Load(int(v) % 101)
	}

	var nodes []wmap.Node
	for _, n := range names {
		nodes = append(nodes, wmap.Node{Name: n, Kind: wmap.KindOfName(n)})
	}
	var links []wmap.Link
	for i := r.intn(9); i > 0; i-- {
		links = append(links, link())
	}
	steps := []time.Duration{5 * time.Minute, time.Hour, 3 * time.Hour, 17 * time.Hour}
	step := steps[r.intn(len(steps))]
	at := time.Date(2020, time.December, 30, r.intn(24), 0, 0, 0, time.UTC)
	var maps []*wmap.Map
	bad := false
	for k, n := 0, 1+r.intn(48); k < n; k++ {
		switch op := r.intn(16); {
		case op == 0 && len(links) < 12:
			links = append(links, link())
		case op == 1 && len(links) > 0:
			i := r.intn(len(links))
			links = append(links[:i:i], links[i+1:]...)
		case op == 2 && len(links) > 0:
			links = append([]wmap.Link(nil), links...)
			links[r.intn(len(links))].LabelB = labels[r.intn(len(labels))]
		case op == 3 && len(links) > 0:
			links = append([]wmap.Link(nil), links...)
			l := &links[r.intn(len(links))]
			l.A, l.B, l.LabelA, l.LabelB = l.B, l.A, l.LabelB, l.LabelA
		case op == 4 && len(links) > 1:
			links = append([]wmap.Link(nil), links...)
			i, j := r.intn(len(links)), r.intn(len(links))
			links[i], links[j] = links[j], links[i]
		}
		m := &wmap.Map{ID: wmap.Europe, Time: at, Nodes: nodes, Links: append([]wmap.Link(nil), links...)}
		for i := range m.Links {
			m.Links[i].LoadAB, m.Links[i].LoadBA = load(), load()
			bad = bad || !m.Links[i].LoadAB.Valid() || !m.Links[i].LoadBA.Valid()
		}
		maps = append(maps, m)
		at = at.Add(step)
	}
	return maps, bad
}

// rangeChecked is a reference fold held to the folds' range contract: a
// load outside [0, 100] anywhere in the corpus fails it with
// stats.ErrOutOfRange.
func rangeChecked[V any](bad bool) func(V, error) (V, error) {
	return func(v V, err error) (V, error) {
		if bad {
			var zero V
			return zero, stats.ErrOutOfRange
		}
		return v, err
	}
}

// FuzzFoldsDifferential: on corpora with topology changes, every load
// class the folds treat apart (0 and 1, which the imbalance filters drop,
// 100, and the out-of-range 101 and 255) and random options, all five
// Figure 5 folds equal their references through every feeder: the
// snapshot stream, a stream that recycles its map, chunks of every length
// and chunks that carry an interned topology. Views must be deeply equal,
// and errors equal by errors.Is (by text for congestion, whose error is
// not a sentinel). Corpora with links from a node to itself skip the
// imbalance fold, whose reference walks such a link's group twice.
func FuzzFoldsDifferential(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{7, 3, 200, 1, 0, 0, 9}, byte(0x12))
	f.Add([]byte("a corpus with every topology edit and 48 snapshots"), byte(0x0b))
	f.Add([]byte{8, 0, 3, 47, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4}, byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, flags byte) {
		r := newFuzzBytes(data)
		selfLinks, outOfRange := flags&1 != 0, flags&2 != 0
		maps, bad := fuzzCorpus(r, selfLinks, outOfRange)
		imbOpt := wmap.ImbalanceOptions{IgnoreZero: flags&4 != 0, IgnoreOne: flags&8 != 0, MinLinks: int(flags>>4) % 5}
		congOpt := CongestionOptions{
			Threshold:       wmap.Load(r.intn(103)),
			PersistFraction: []float64{0, 0.1, 0.25, 0.5, 1}[r.intn(5)],
		}

		streams := map[string]Stream{"stream": SliceStream(maps), "reused": reusingStream(maps)}
		columns := map[string]ColumnStream{"topo": chunkStream(t, maps, 1+r.intn(len(maps)), true)}
		for _, n := range []int{1, 2, 5, len(maps)} {
			columns[fmt.Sprintf("chunks of %d", n)] = columnize(maps, n)
		}
		check := func(fold, feeder string, want, got any, wantErr, gotErr error) {
			t.Helper()
			if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/%s (%d snapshots, flags %#x): diverges from the reference:\nreference %+v (err %v)\ngot       %+v (err %v)",
					fold, feeder, len(maps), flags, want, wantErr, got, gotErr)
			}
		}

		wantHourly, wantHourlyErr := rangeChecked[*HourlyLoadView](bad)(referenceHourlyLoads(SliceStream(maps)))
		wantCDF, wantCDFErr := rangeChecked[*LoadDistView](bad)(referenceLoadCDF(SliceStream(maps)))
		wantCong, wantCongErr := referenceCongestion(SliceStream(maps), congOpt)
		for name, src := range streams {
			got, err := HourlyLoads(src)
			check("hourly", name, wantHourly, got, wantHourlyErr, err)
			gotCDF, err := LoadCDF(src)
			check("loadcdf", name, wantCDF, gotCDF, wantCDFErr, err)
			gotCong, err := CongestionStudy(src, congOpt)
			if fmt.Sprint(err) != fmt.Sprint(wantCongErr) || !reflect.DeepEqual(wantCong, gotCong) {
				t.Fatalf("congestion/%s (%+v): diverges from the reference:\nreference %+v (err %v)\ngot       %+v (err %v)",
					name, congOpt, wantCong, wantCongErr, gotCong, err)
			}
		}

		wantWk, wantWkErr := rangeChecked[*WeeklyView](bad)(referenceWeeklyLoads(SliceStream(maps)))
		got, err := WeeklyLoads(SliceStream(maps))
		check("weekly", "stream", wantWk, got, wantWkErr, err)
		for name, src := range columns {
			got, err := WeeklyLoadsColumns(src)
			check("weekly", name, wantWk, got, wantWkErr, err)
		}

		if selfLinks {
			return
		}
		wantImb, wantImbErr := referenceImbalanceCDF(SliceStream(maps), imbOpt)
		for name, src := range streams {
			got, err := ImbalanceCDF(src, imbOpt)
			check("imbalance", name, wantImb, got, wantImbErr, err)
		}
		for name, src := range columns {
			got, err := ImbalanceCDFColumns(src, imbOpt)
			check("imbalance", name, wantImb, got, wantImbErr, err)
		}
	})
}
