package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// The reference folds below are the Figure 5 folds as first written: one
// snapshot at a time, through the imbalance walk wmap.Imbalances first ran
// and a sample per group. They share no code with the column folds beyond
// stats.Sample, so a column fold that drifts from them cannot hide behind a
// twin of itself.

// sample is the references' accumulator: a stats.Sample for the
// distribution functions, which also keeps its observations for the
// counts, pools, means and percentiles the views report.
type sample struct {
	*stats.Sample
	vs []float64
}

func newSample() *sample { return &sample{Sample: stats.NewSample()} }

func (s *sample) Add(vs ...float64) {
	s.Sample.Add(vs...)
	s.vs = append(s.vs, vs...)
}

func (s *sample) Len() int { return len(s.vs) }

func (s *sample) Mean() (float64, error) {
	if len(s.vs) == 0 {
		return 0, stats.ErrEmpty
	}
	var sum float64
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs)), nil
}

// Percentile interpolates linearly between the closest ranks (numpy's
// default estimator) for p in [0, 100].
func (s *sample) Percentile(p float64) (float64, error) {
	if len(s.vs) == 0 {
		return 0, stats.ErrEmpty
	}
	v := slices.Clone(s.vs)
	slices.Sort(v)
	rank := p / 100 * float64(len(v)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return v[lo], nil
	}
	frac := rank - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac, nil
}

// Quartiles reads the Figure 5a summary off the sample's percentiles.
func (s *sample) Quartiles() (stats.Quartiles, error) {
	var q stats.Quartiles
	var err error
	if q.P1, err = s.Percentile(1); err != nil {
		return q, err
	}
	q.P25, _ = s.Percentile(25)
	q.Median, _ = s.Percentile(50)
	q.P75, _ = s.Percentile(75)
	q.P99, _ = s.Percentile(99)
	return q, nil
}

// referenceParallelGroups groups the map's links by their sorted endpoint
// names, in name order; links keep map order within a group.
func referenceParallelGroups(m *wmap.Map) [][]wmap.Link {
	idx := make(map[[2]string]int)
	var keys [][2]string
	var groups [][]wmap.Link
	for _, l := range m.Links {
		a, b := l.Endpoints()
		gi, ok := idx[[2]string{a, b}]
		if !ok {
			gi = len(groups)
			idx[[2]string{a, b}] = gi
			keys = append(keys, [2]string{a, b})
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], l)
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := keys[order[i]], keys[order[j]]
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	out := make([][]wmap.Link, len(groups))
	for i, gi := range order {
		out[i] = groups[gi]
	}
	return out
}

// referenceImbalanceCDF is Figure 5c by the paper's definition: for each
// parallel group, from its lesser endpoint and then from its greater, the
// spread of the directed loads that survive the filters, and the mean
// group size over the groups with an OVH router.
func referenceImbalanceCDF(src Stream, opt wmap.ImbalanceOptions) (*ImbalanceView, error) {
	internal := newSample()
	external := newSample()
	var lastParallelism float64
	err := src(func(m *wmap.Map) error {
		var links, groups int
		for _, g := range referenceParallelGroups(m) {
			a, b := g[0].Endpoints()
			if wmap.KindOfName(a) == wmap.Router || wmap.KindOfName(b) == wmap.Router {
				links += len(g)
				groups++
			}
			for _, from := range [2]string{a, b} {
				var kept []float64
				for _, l := range g {
					load := l.LoadBA
					if from == l.A {
						load = l.LoadAB
					}
					if (opt.IgnoreZero && load == 0) || (opt.IgnoreOne && load == 1) {
						continue
					}
					kept = append(kept, float64(load))
				}
				if len(kept) == 0 || len(kept) < opt.MinLinks {
					continue
				}
				spread := slices.Max(kept) - slices.Min(kept)
				if wmap.KindOfName(a) == wmap.Router && wmap.KindOfName(b) == wmap.Router {
					internal.Add(spread)
				} else {
					external.Add(spread)
				}
			}
		}
		lastParallelism = 0
		if groups > 0 {
			lastParallelism = float64(links) / float64(groups)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &ImbalanceView{
		IntSets:         internal.Len(),
		ExtSets:         external.Len(),
		MeanParallelism: lastParallelism,
	}
	if internal.Len() > 0 {
		view.Internal, _ = internal.CDF()
		view.IntWithin1, _ = internal.FractionAtMost(1)
	}
	if external.Len() > 0 {
		view.External, _ = external.CDF()
		view.ExtWithin2, _ = external.FractionAtMost(2)
	}
	return view, nil
}

// referenceWeeklyLoads groups every directed load by the snapshot's
// weekday, then pools the weekday and weekend groups into fresh samples
// for their means.
func referenceWeeklyLoads(src Stream) (*WeeklyView, error) {
	byDay := make([]*sample, 7)
	for i := range byDay {
		byDay[i] = newSample()
	}
	err := src(func(m *wmap.Map) error {
		d := int(m.Time.Weekday())
		for _, l := range m.Links {
			byDay[d].Add(float64(l.LoadAB), float64(l.LoadBA))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &WeeklyView{}
	weekday := newSample()
	weekend := newSample()
	for d := 0; d < 7; d++ {
		view.Samples[d] = byDay[d].Len()
		if byDay[d].Len() == 0 {
			continue
		}
		med, err := byDay[d].Percentile(50)
		if err != nil {
			return nil, err
		}
		view.ByDay[d] = med
		switch time.Weekday(d) {
		case time.Saturday, time.Sunday:
			weekend.Add(byDay[d].vs...)
		default:
			weekday.Add(byDay[d].vs...)
		}
	}
	if weekday.Len() > 0 {
		view.WeekdayMean, _ = weekday.Mean()
	}
	if weekend.Len() > 0 {
		view.WeekendMean, _ = weekend.Mean()
	}
	if weekday.Len() == 0 && weekend.Len() == 0 {
		return nil, stats.ErrEmpty
	}
	return view, nil
}

// referenceHourlyLoads keeps its hour groups in a map keyed by hour,
// created on an hour's first observation.
func referenceHourlyLoads(src Stream) (*HourlyLoadView, error) {
	groups := make(map[int]*sample)
	err := src(func(m *wmap.Map) error {
		h := m.Time.Hour()
		for _, l := range m.Links {
			g, ok := groups[h]
			if !ok {
				g = newSample()
				groups[h] = g
			}
			g.Add(float64(l.LoadAB))
			g.Add(float64(l.LoadBA))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &HourlyLoadView{}
	for h := 0; h < 24; h++ {
		g := groups[h]
		if g == nil {
			continue
		}
		q, err := g.Quartiles()
		if err != nil {
			return nil, err
		}
		view.Hours[h] = q
		view.Samples[h] = g.Len()
	}
	return view, nil
}

// referenceLoadCDF is Figure 5b on one sample per link class plus one for
// all links, each directed load added as it is read.
func referenceLoadCDF(src Stream) (*LoadDistView, error) {
	all := newSample()
	byClass := map[bool]*sample{true: newSample(), false: newSample()}
	err := src(func(m *wmap.Map) error {
		for _, l := range m.Links {
			for _, v := range [2]wmap.Load{l.LoadAB, l.LoadBA} {
				all.Add(float64(v))
				byClass[l.Internal()].Add(float64(v))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	view := &LoadDistView{Samples: all.Len()}
	if view.All, err = all.CDF(); err != nil {
		return nil, err
	}
	if in := byClass[true]; in.Len() > 0 {
		if view.Internal, err = in.CDF(); err != nil {
			return nil, err
		}
		if view.MeanInternal, err = in.Mean(); err != nil {
			return nil, err
		}
	}
	if ex := byClass[false]; ex.Len() > 0 {
		if view.External, err = ex.CDF(); err != nil {
			return nil, err
		}
		if view.MeanExternal, err = ex.Mean(); err != nil {
			return nil, err
		}
	}
	if view.P75All, err = all.Percentile(75); err != nil {
		return nil, err
	}
	atMost60, err := all.FractionAtMost(60)
	if err != nil {
		return nil, err
	}
	view.FracOver60 = 1 - atMost60
	return view, nil
}

// TestFoldsMatchReference: every Figure 5 fold, through every feeder, is
// deeply equal to its reference — views and errors alike — on corpora that
// exercise topology changes (mid-corpus growth, same-size edits, a simulated
// decommission) and snapshots without links.
func TestFoldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpora := map[string][]*wmap.Map{"corpus": testCorpus(rng, 120)}
	for name, maps := range topologyVariants(rng, 96) {
		corpora["variant/"+name] = maps
	}

	// Nine days around the October 2020 decommission, which must change the
	// simulated topology inside the window.
	from := time.Date(2020, time.September, 28, 0, 0, 0, 0, time.UTC)
	var sim []*wmap.Map
	if err := simStream(t, wmap.Europe, from, from.AddDate(0, 0, 9), 6*time.Hour)(func(m *wmap.Map) error {
		sim = append(sim, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sameLinkIdentity(sim[0].Links, sim[len(sim)-1].Links) {
		t.Fatal("netsim window has no topology change")
	}
	corpora["netsim"] = sim

	// Every third snapshot loses its links; an all-empty corpus makes the
	// weekly fold fail with stats.ErrEmpty.
	sparse := testCorpus(rng, 60)
	for i := 0; i < len(sparse); i += 3 {
		sparse[i].Links = nil
	}
	corpora["nolinks"] = sparse
	empty := testCorpus(rng, 10)
	for _, m := range empty {
		m.Links = nil
	}
	corpora["empty"] = empty

	for name, maps := range corpora {
		check := func(fold string, want, got any, wantErr, gotErr error) {
			t.Helper()
			if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(want, got) {
				t.Errorf("%s %s: diverges from the reference:\nreference %+v (err %v)\ngot       %+v (err %v)", name, fold, want, wantErr, got, gotErr)
			}
		}
		want, wantErr := referenceHourlyLoads(SliceStream(maps))
		got, gotErr := HourlyLoads(SliceStream(maps))
		check("hourly", want, got, wantErr, gotErr)

		wantCDF, wantErr := referenceLoadCDF(SliceStream(maps))
		gotCDF, gotErr := LoadCDF(SliceStream(maps))
		check("loadcdf", wantCDF, gotCDF, wantErr, gotErr)

		wantWk, wantErr := referenceWeeklyLoads(SliceStream(maps))
		gotWk, gotErr := WeeklyLoads(SliceStream(maps))
		check("weekly/stream", wantWk, gotWk, wantErr, gotErr)
		for _, chunkLen := range []int{1, 5, 16, len(maps)} {
			gotWk, gotErr := WeeklyLoadsColumns(columnize(maps, chunkLen))
			check(fmt.Sprintf("weekly/chunks of %d", chunkLen), wantWk, gotWk, wantErr, gotErr)
		}

		for optName, opt := range testImbalanceOptions() {
			want, wantErr := referenceImbalanceCDF(SliceStream(maps), opt)
			got, gotErr := ImbalanceCDF(SliceStream(maps), opt)
			check("imbalance/"+optName+"/stream", want, got, wantErr, gotErr)
			for _, chunkLen := range []int{1, 5, 16, len(maps)} {
				got, gotErr := ImbalanceCDFColumns(columnize(maps, chunkLen), opt)
				check(fmt.Sprintf("imbalance/%s/chunks of %d", optName, chunkLen), want, got, wantErr, gotErr)
			}
		}
	}
}

// TestFoldsRejectOutOfRangeLoads: a load outside [0, 100] anywhere in the
// corpus makes every Figure 5 fold fail with stats.ErrOutOfRange, through
// every feeder, rather than bin, clamp or drop it.
func TestFoldsRejectOutOfRangeLoads(t *testing.T) {
	bad := map[string]func(maps []*wmap.Map){
		"101": func(maps []*wmap.Map) { maps[5].Links[0].LoadAB = 101 },
		"255": func(maps []*wmap.Map) { maps[20].Links[3].LoadBA = 255 },
		"both": func(maps []*wmap.Map) {
			maps[5].Links[0].LoadAB = 101
			maps[20].Links[3].LoadBA = 255
		},
	}
	opt := wmap.PaperImbalanceOptions()
	for name, edit := range bad {
		maps := testCorpus(rand.New(rand.NewSource(23)), 40)
		edit(maps)
		folds := map[string]func() error{
			"hourly":  func() error { _, err := HourlyLoads(SliceStream(maps)); return err },
			"loadcdf": func() error { _, err := LoadCDF(SliceStream(maps)); return err },
			"imbalance/stream": func() error {
				_, err := ImbalanceCDF(SliceStream(maps), opt)
				return err
			},
			"imbalance/chunks": func() error {
				_, err := ImbalanceCDFColumns(columnize(maps, 16), opt)
				return err
			},
			"weekly/stream": func() error { _, err := WeeklyLoads(SliceStream(maps)); return err },
			"weekly/chunks": func() error { _, err := WeeklyLoadsColumns(columnize(maps, 16)); return err },
		}
		for fold, run := range folds {
			if err := run(); !errors.Is(err, stats.ErrOutOfRange) {
				t.Errorf("load %s: %s err = %v, want stats.ErrOutOfRange", name, fold, err)
			}
		}
	}
}

// TestFoldAllocsIndependentOfLength: every Figure 5 fold allocates as much
// over 8N snapshots as over N — its state is fixed-size, not per
// observation.
func TestFoldAllocsIndependentOfLength(t *testing.T) {
	const n = 16
	short := testCorpus(rand.New(rand.NewSource(29)), n)
	long := testCorpus(rand.New(rand.NewSource(29)), 8*n)
	opt := wmap.PaperImbalanceOptions()
	folds := map[string]func(src Stream) error{
		"hourly":    func(src Stream) error { _, err := HourlyLoads(src); return err },
		"loadcdf":   func(src Stream) error { _, err := LoadCDF(src); return err },
		"imbalance": func(src Stream) error { _, err := ImbalanceCDF(src, opt); return err },
		"weekly":    func(src Stream) error { _, err := WeeklyLoads(src); return err },
	}
	for name, fold := range folds {
		allocs := func(maps []*wmap.Map) float64 {
			src := SliceStream(maps)
			return testing.AllocsPerRun(10, func() {
				if err := fold(src); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(short), allocs(long); a != b {
			t.Errorf("%s: %v allocs over %d snapshots, %v over %d", name, a, n, b, 8*n)
		}
	}
}
