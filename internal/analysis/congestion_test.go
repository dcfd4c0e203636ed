package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// referenceCongestion is CongestionStudy as it was before the direction
// index: events.EachDirection and a DirKey lookup for every snapshot. The
// indexed fold must agree with it exactly.
func referenceCongestion(src Stream, opt CongestionOptions) (*CongestionView, error) {
	type acc struct {
		hot, seen int
		peak      wmap.Load
	}
	counts := make(map[events.DirKey]*acc)
	view := &CongestionView{Options: opt}

	err := src(func(m *wmap.Map) error {
		view.Snapshots++
		events.EachDirection(m, func(dir events.Direction) {
			a := counts[dir.Key()]
			if a == nil {
				a = &acc{}
				counts[dir.Key()] = a
			}
			a.seen++
			view.Observations++
			if dir.Load >= opt.Threshold {
				a.hot++
				view.HotReadings++
			}
			if dir.Load > a.peak {
				a.peak = dir.Load
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if view.Observations == 0 {
		return nil, fmt.Errorf("analysis: no load observations in the stream")
	}
	view.HotFraction = float64(view.HotReadings) / float64(view.Observations)
	for key, a := range counts {
		share := float64(a.hot) / float64(a.seen)
		if share < opt.PersistFraction {
			continue
		}
		view.Persistent = append(view.Persistent, CongestedLink{
			From: key.From, To: key.To, Label: key.Label, Ordinal: key.Ordinal,
			HotShare: share, PeakLoad: a.peak, Snapshots: a.seen,
		})
	}
	sort.Slice(view.Persistent, func(i, j int) bool {
		a, b := view.Persistent[i], view.Persistent[j]
		if a.HotShare != b.HotShare {
			return a.HotShare > b.HotShare
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Ordinal != b.Ordinal {
			return a.Ordinal < b.Ordinal
		}
		return a.Label < b.Label
	})
	return view, nil
}

// reusingStream yields every snapshot through one scratch map whose link
// slice is overwritten in place, as a cursor that recycles its view does.
func reusingStream(maps []*wmap.Map) Stream {
	return func(yield func(*wmap.Map) error) error {
		var scratch wmap.Map
		for _, m := range maps {
			scratch.ID, scratch.Time, scratch.Nodes = m.ID, m.Time, m.Nodes
			scratch.Links = append(scratch.Links[:0], m.Links...)
			if err := yield(&scratch); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCongestionMatchesReference: the direction-indexed fold equals the
// per-snapshot reference across topology changes that keep the link count
// (relabel, reorder, A<->B swap), whether or not the stream recycles its
// map, and at thresholds that make few, some or all directions persistent.
func TestCongestionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, maps := range topologyVariants(rng, 96) {
		for _, opt := range []CongestionOptions{
			DefaultCongestionOptions(),
			{Threshold: 90, PersistFraction: 0.1},
			{Threshold: 0, PersistFraction: 0},
		} {
			want, err := referenceCongestion(SliceStream(maps), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Persistent) == 0 {
				t.Fatalf("%s %+v: corpus too tame, no persistent direction", name, opt)
			}
			for streamName, src := range map[string]Stream{"slice": SliceStream(maps), "reused": reusingStream(maps)} {
				got, err := CongestionStudy(src, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s %+v %s stream: views diverge:\nreference %+v\nindexed   %+v", name, opt, streamName, want, got)
				}
			}
		}
	}
}

// TestCongestionOrderDeterministic: directions that differ only in label —
// a relabel across a topology change — with equal hot share come out in
// label order, not in map iteration order.
func TestCongestionOrderDeterministic(t *testing.T) {
	base := time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	var maps []*wmap.Map
	for i := 0; i < 8; i++ {
		m := &wmap.Map{ID: wmap.Europe, Time: base.Add(time.Duration(i) * 5 * time.Minute)}
		for p := 0; p < 4; p++ {
			label := fmt.Sprintf("#%d", p+1)
			if i >= 4 {
				label = fmt.Sprintf("#%d", p+5)
			}
			m.Links = append(m.Links, wmap.Link{A: "a-r1", B: "b-r1", LabelA: label, LabelB: label, LoadAB: 80, LoadBA: 10})
		}
		maps = append(maps, m)
	}
	first, err := CongestionStudy(SliceStream(maps), DefaultCongestionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Persistent) != 8 {
		t.Fatalf("persistent = %+v, want 8 directions", first.Persistent)
	}
	for i, c := range first.Persistent {
		if want := fmt.Sprintf("#%d", i%2*4+i/2+1); c.Ordinal != i/2 || c.Label != want {
			t.Errorf("persistent[%d] = ordinal %d label %s, want ordinal %d label %s", i, c.Ordinal, c.Label, i/2, want)
		}
	}
	for run := 0; run < 50; run++ {
		v, err := CongestionStudy(SliceStream(maps), DefaultCongestionOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, v) {
			t.Fatalf("run %d differs:\nfirst %+v\nthis  %+v", run, first.Persistent, v.Persistent)
		}
	}
}
