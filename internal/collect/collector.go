package collect

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"ovhweather/internal/dataset"
	"ovhweather/internal/wmap"
)

// Outage is a closed interval during which a map is not collected. Outages
// model both the collector-side interruptions visible in Figure 2 and the
// periods before a map was added to the crawl.
type Outage struct {
	Map      wmap.MapID // empty matches every map
	From, To time.Time
}

// covers reports whether the outage suppresses collection of id at t.
func (o Outage) covers(id wmap.MapID, t time.Time) bool {
	if o.Map != "" && o.Map != id {
		return false
	}
	return !t.Before(o.From) && !t.After(o.To)
}

// Plan is the deterministic collection-quality model.
type Plan struct {
	Outages []Outage
	// SkipRate is the probability a scheduled fetch is missed (crash,
	// timeout, operator error), before the operational fix.
	SkipRate float64
	// FixTime is when the operational issue was identified and fixed (May
	// 2022 in the paper); SkipRateAfterFix applies from then on.
	FixTime          time.Time
	SkipRateAfterFix float64
	// PerMapSkipBoost multiplies the skip rate for non-Europe maps, whose
	// resolution the paper reports as coarser.
	PerMapSkipBoost float64
}

// DefaultPlan reproduces the paper's Figure 2 collection history.
func DefaultPlan() Plan {
	sep2020 := time.Date(2020, time.September, 25, 0, 0, 0, 0, time.UTC)
	oct2021 := time.Date(2021, time.October, 4, 0, 0, 0, 0, time.UTC)
	var outages []Outage
	for _, id := range []wmap.MapID{wmap.World, wmap.NorthAmerica, wmap.AsiaPacific} {
		outages = append(outages, Outage{Map: id, From: sep2020, To: oct2021})
	}
	// A couple of short all-maps interruptions.
	outages = append(outages,
		Outage{From: time.Date(2021, time.March, 14, 2, 0, 0, 0, time.UTC), To: time.Date(2021, time.March, 14, 9, 0, 0, 0, time.UTC)},
		Outage{From: time.Date(2022, time.January, 8, 11, 0, 0, 0, time.UTC), To: time.Date(2022, time.January, 9, 3, 0, 0, 0, time.UTC)},
	)
	return Plan{
		Outages:          outages,
		SkipRate:         0.0015,
		FixTime:          time.Date(2022, time.May, 6, 0, 0, 0, 0, time.UTC),
		SkipRateAfterFix: 0.0003,
		PerMapSkipBoost:  20, // non-Europe maps miss snapshots far more often
	}
}

// ShouldCollect decides deterministically whether the fetch of id scheduled
// at t happens.
func (p Plan) ShouldCollect(id wmap.MapID, t time.Time) bool {
	for _, o := range p.Outages {
		if o.covers(id, t) {
			return false
		}
	}
	rate := p.SkipRate
	if !p.FixTime.IsZero() && !t.Before(p.FixTime) {
		rate = p.SkipRateAfterFix
	}
	if id != wmap.Europe && p.PerMapSkipBoost > 0 {
		rate *= p.PerMapSkipBoost
	}
	if rate <= 0 {
		return true
	}
	h := splitmix(uint64(t.Unix()) ^ hashName(string(id)))
	return float64(h>>11)/float64(1<<53) >= rate
}

// Collector polls a weather-map website and archives snapshots.
type Collector struct {
	BaseURL string
	Client  *http.Client
	Store   *dataset.Store
	Plan    Plan
	Maps    []wmap.MapID
	// Retries is how many times a failed fetch is retried immediately.
	Retries int

	// OnStored, when non-nil, observes every snapshot right after it is
	// durably written to the store: the map, the collection timestamp, and
	// the raw SVG bytes. The collector calls it synchronously on the poll
	// goroutine and in chronological order per map, so a live-ingest hook
	// can parse and append to a tsdb archive without its own ordering
	// buffer. The callback must not retain data. An error aborts the cycle.
	OnStored func(id wmap.MapID, t time.Time, data []byte) error

	// cached holds the last body and validator per map for conditional
	// requests; a 304 reuses the cached body under the new timestamp.
	cached map[wmap.MapID]cachedDoc
}

type cachedDoc struct {
	etag string
	body []byte
}

// Stats accumulates a collection run's accounting.
type Stats struct {
	Fetched     int
	NotModified int // served from cache via HTTP 304
	Skipped     int
	Failed      int
}

// CollectAt performs the fetch cycle scheduled at virtual time t: for every
// map not suppressed by the plan, download the current SVG and store it
// under t. Every request carries ctx, so a deadline bounds a stalled
// upstream: a fetch cut off by ctx counts as failed and stores nothing,
// and once ctx is done the remaining maps fail without being requested.
func (c *Collector) CollectAt(ctx context.Context, t time.Time) (Stats, error) {
	var st Stats
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	for _, id := range c.Maps {
		if !c.Plan.ShouldCollect(id, t) {
			st.Skipped++
			continue
		}
		data, notModified, err := c.fetch(ctx, client, id)
		if err != nil {
			st.Failed++
			continue
		}
		if err := c.Store.WriteSnapshot(id, t, dataset.ExtSVG, data); err != nil {
			return st, fmt.Errorf("collect: storing %s at %s: %w", id, t, err)
		}
		if c.OnStored != nil {
			if err := c.OnStored(id, t, data); err != nil {
				return st, fmt.Errorf("collect: on-stored hook for %s at %s: %w", id, t, err)
			}
		}
		if notModified {
			st.NotModified++
		} else {
			st.Fetched++
		}
	}
	return st, nil
}

// fetch downloads one map, retrying immediately on failure until the
// retries run out or ctx is done.
func (c *Collector) fetch(ctx context.Context, client *http.Client, id wmap.MapID) (data []byte, notModified bool, err error) {
	lastErr := ctx.Err()
	for attempt := 0; attempt <= c.Retries && ctx.Err() == nil; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/map/%s.svg", c.BaseURL, id), nil)
		if err != nil {
			return nil, false, err
		}
		if doc, ok := c.cached[id]; ok && doc.etag != "" {
			req.Header.Set("If-None-Match", doc.etag)
		}
		resp, err := client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if c.cached == nil {
				c.cached = make(map[wmap.MapID]cachedDoc)
			}
			c.cached[id] = cachedDoc{etag: resp.Header.Get("ETag"), body: body}
			return body, false, nil
		case http.StatusNotModified:
			// The site has not refreshed since the last poll: archive the
			// cached body under the new timestamp.
			return c.cached[id].body, true, nil
		default:
			lastErr = fmt.Errorf("collect: %s: HTTP %d", id, resp.StatusCode)
		}
	}
	return nil, false, lastErr
}

// Run drives a whole campaign on a virtual clock: for each step in
// [from, to], advance the server and collect. The server is advanced
// through the supplied tick function so the caller controls the coupling
// (in production the site updates itself and the collector's cron fires
// independently). ctx bounds every fetch of the campaign.
func (c *Collector) Run(ctx context.Context, from, to time.Time, step time.Duration, tick func(time.Time) error) (Stats, error) {
	var total Stats
	for t := from; !t.After(to); t = t.Add(step) {
		if tick != nil {
			if err := tick(t); err != nil {
				return total, err
			}
		}
		st, err := c.CollectAt(ctx, t)
		if err != nil {
			return total, err
		}
		total.Fetched += st.Fetched
		total.NotModified += st.NotModified
		total.Skipped += st.Skipped
		total.Failed += st.Failed
	}
	return total, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
