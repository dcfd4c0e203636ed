package tsdb

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"ovhweather/internal/stats"
	"ovhweather/internal/wmap"
)

// The contract for stepped per-link load queries. The API serves
// /links/{id}/load?step= as a one-key grid scan — rollup tiers where the
// planner can prove them exact, raw blocks elsewhere — and every response
// must be byte-identical to the plain reference below: the link's raw
// series from linkSeries, resampled by stats.TimeSeries.Resample (or
// resampleAgg for bands=1) and encoded point by point. The grid path and
// the per-link path sharing an engine means they can no longer disagree;
// this reference is what keeps both honest.

// linkSeries extracts one link's two directed load series over [from, to]
// (inclusive; zero times mean unbounded) through LinkColumnsContext, as
// time series the stats resamplers take.
func linkSeries(ctx context.Context, r *Reader, id wmap.MapID, key LinkKey, from, to time.Time) (ab, ba *stats.TimeSeries, err error) {
	ab, ba = stats.NewTimeSeries(), stats.NewTimeSeries()
	err = r.LinkColumnsContext(ctx, id, key, from, to, func(times []int64, abCol, baCol []wmap.Load) error {
		for k, sec := range times {
			at := time.Unix(sec, 0).UTC()
			ab.Append(at, float64(abCol[k]))
			ba.Append(at, float64(baCol[k]))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ab, ba, nil
}

// appendSeries appends a series as [{"t":...,"v":...},...].
func appendSeries(b []byte, ts *stats.TimeSeries) []byte {
	b = append(b, '[')
	var enc timeEncoder
	for i, p := range ts.Points() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"t":`...)
		b = enc.append(b, p.T)
		b = append(b, `,"v":`...)
		b = appendJSONFloat(b, p.V)
		b = append(b, '}')
	}
	return append(b, ']')
}

// windowAgg is one resample window's full aggregate: the same mean
// Resample emits plus the count, sum and extremes, the shape of the load
// API's min/max bands.
type windowAgg struct {
	T        time.Time
	Count    int
	Sum      float64
	Min, Max float64
}

// resampleAgg is ts.Resample keeping the whole aggregate per window
// instead of just the mean: identical bucketing (fixed windows of width
// step anchored at the first point, empty windows skipped, partial last
// window emitted), so resampleAgg[i].Sum/Count equals Resample's i-th
// value exactly.
func resampleAgg(ts *stats.TimeSeries, step time.Duration) []windowAgg {
	points := ts.Points()
	if len(points) == 0 || step <= 0 {
		return nil
	}
	var out []windowAgg
	cur := points[0].T
	agg := windowAgg{T: cur}
	flush := func() {
		if agg.Count > 0 {
			out = append(out, agg)
		}
		agg = windowAgg{T: cur}
	}
	for _, p := range points {
		for p.T.Sub(cur) >= step {
			flush()
			cur = cur.Add(step)
			agg.T = cur
		}
		if agg.Count == 0 || p.V < agg.Min {
			agg.Min = p.V
		}
		if agg.Count == 0 || p.V > agg.Max {
			agg.Max = p.V
		}
		agg.Sum += p.V
		agg.Count++
	}
	flush()
	return out
}

// TestResampleAggMatchesResample: the aggregate resample must bucket
// exactly like Resample — same windows, same skipping, Sum/Count equal to
// the mean bit for bit — while carrying counts and extremes alongside.
func TestResampleAggMatchesResample(t *testing.T) {
	ts := stats.NewTimeSeries()
	t0 := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		// Irregular spacing with multi-window gaps and float-unfriendly values.
		ts.Append(t0.Add(time.Duration(7*i+i%13)*time.Minute), float64((i*37)%101)/3)
	}
	means := ts.Resample(time.Hour).Points()
	aggs := resampleAgg(ts, time.Hour)
	if len(aggs) != len(means) {
		t.Fatalf("agg windows = %d, mean windows = %d", len(aggs), len(means))
	}
	total := 0
	for i, a := range aggs {
		if !a.T.Equal(means[i].T) {
			t.Errorf("window %d at %v, want %v", i, a.T, means[i].T)
		}
		if got := a.Sum / float64(a.Count); got != means[i].V {
			t.Errorf("window %d mean = %v, want %v", i, got, means[i].V)
		}
		if a.Min > a.Max || a.Sum < a.Min*float64(a.Count) || a.Sum > a.Max*float64(a.Count) {
			t.Errorf("window %d aggregate inconsistent: %+v", i, a)
		}
		total += a.Count
	}
	if total != len(ts.Points()) {
		t.Errorf("aggregated %d points, series holds %d", total, len(ts.Points()))
	}
	if got := resampleAgg(stats.NewTimeSeries(), time.Hour); got != nil {
		t.Errorf("empty resampleAgg = %v", got)
	}
}

// appendAggSeries appends one field of an aggregate resample as a series.
func appendAggSeries(b []byte, aggs []windowAgg, sel func(wa *windowAgg) float64) []byte {
	b = append(b, '[')
	var enc timeEncoder
	for i := range aggs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"t":`...)
		b = enc.append(b, aggs[i].T)
		b = append(b, `,"v":`...)
		b = appendJSONFloat(b, sel(&aggs[i]))
		b = append(b, '}')
	}
	return append(b, ']')
}

// referenceLoadBody is the reference response for a stepped per-link query;
// zero from/to default to the map's bounds, as the handler's do.
func referenceLoadBody(t *testing.T, rd *Reader, linkID string, from, to time.Time, step time.Duration, bands bool) []byte {
	t.Helper()
	id, key, ok := rd.ResolveLinkID(linkID)
	if !ok {
		t.Fatalf("reference: unknown link id %q", linkID)
	}
	bFrom, bTo, _ := rd.Bounds(id)
	if from.IsZero() {
		from = bFrom
	}
	if to.IsZero() {
		to = bTo
	}
	ab, ba, err := linkSeries(context.Background(), rd, id, key, from, to)
	if err != nil {
		t.Fatalf("reference: linkSeries(%s): %v", linkID, err)
	}
	b := appendLoadMeta(nil, linkID, id, key, from, to, step)
	if !bands {
		b = append(b, `,"ab":`...)
		b = appendSeries(b, ab.Resample(step))
		b = append(b, `,"ba":`...)
		b = appendSeries(b, ba.Resample(step))
		return append(b, '}', '\n')
	}
	mean := func(wa *windowAgg) float64 { return wa.Sum / float64(wa.Count) }
	lo := func(wa *windowAgg) float64 { return wa.Min }
	hi := func(wa *windowAgg) float64 { return wa.Max }
	abAgg, baAgg := resampleAgg(ab, step), resampleAgg(ba, step)
	b = append(b, `,"ab":`...)
	b = appendAggSeries(b, abAgg, mean)
	b = append(b, `,"ba":`...)
	b = appendAggSeries(b, baAgg, mean)
	b = append(b, `,"ab_min":`...)
	b = appendAggSeries(b, abAgg, lo)
	b = append(b, `,"ab_max":`...)
	b = appendAggSeries(b, abAgg, hi)
	b = append(b, `,"ba_min":`...)
	b = appendAggSeries(b, baAgg, lo)
	b = append(b, `,"ba_max":`...)
	b = appendAggSeries(b, baAgg, hi)
	return append(b, '}', '\n')
}

// TestPerLinkStepMatchesResample: over random archives (some growing a
// link mid-range), every link, steps 7m through 24h, full-range, random
// and hour-aligned sub-range windows, bands on and off, and rollup serving
// on and off, the stepped per-link response equals the reference bytes.
// Hour-aligned windows starting at a block base let the 1h tier serve, so
// both planned and raw serving are compared.
func TestPerLinkStepMatchesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	steps := []time.Duration{7 * time.Minute, 15 * time.Minute, time.Hour, 2 * time.Hour, 24 * time.Hour}
	var compared int
	var tiers, raw int64
	for arch := 0; arch < 6; arch++ {
		rd, n := randomGridArchive(t, rng)
		h := NewAPIHandler(rd)
		st := rd.st()

		type window struct{ from, to time.Time }
		windows := []window{{}}
		for w := 0; w < 2; w++ {
			from := at(5 * rng.Intn(n))
			windows = append(windows, window{from, from.Add(time.Duration(1+rng.Intn(n)) * 5 * time.Minute)})
		}
		for _, bi := range st.perMap[wmap.Europe][1:] { // the first base is the full range's anchor
			if b := st.blocks[bi].baseUnix; b%3600 == 0 {
				from := time.Unix(b, 0).UTC()
				windows = append(windows, window{from, from.Add(time.Duration(1+rng.Intn(n)) * 5 * time.Minute)})
				break
			}
		}
		keys, _ := st.topoKeyIndexes()
		seen := map[string]bool{}
		var ids []string
		for _, ks := range keys {
			for _, k := range ks {
				if id := k.ID(wmap.Europe); !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}

		for _, off := range []bool{false, true} {
			rd.rollupOff.Store(off)
			for _, linkID := range ids {
				for _, step := range steps {
					for _, win := range windows {
						for _, bands := range []bool{false, true} {
							u := "/api/v1/links/" + linkID + "/load?step=" + step.String()
							if !win.from.IsZero() {
								u += "&from=" + win.from.Format(time.RFC3339) + "&to=" + win.to.Format(time.RFC3339)
							}
							if bands {
								u += "&bands=1"
							}
							code, got := getRaw(t, h, u)
							if code != http.StatusOK {
								t.Fatalf("archive %d GET %s: status %d (%s)", arch, u, code, got)
							}
							want := referenceLoadBody(t, rd, linkID, win.from, win.to, step, bands)
							if !bytes.Equal(got, want) {
								t.Fatalf("archive %d rollupOff=%v GET %s differs from the Resample reference:\ngot:  %.300s\nwant: %.300s",
									arch, off, u, got, want)
							}
							compared++
						}
					}
				}
			}
		}
		ps := rd.PlannerStats()
		for _, c := range ps.Tiers {
			tiers += c
		}
		raw += ps.Raw
	}
	if tiers == 0 || raw == 0 {
		t.Errorf("comparison did not cover both serving paths: %d tier-served, %d raw-served", tiers, raw)
	}
	t.Logf("%d responses byte-identical to the reference (%d tier-served, %d raw-served)", compared, tiers, raw)
}
