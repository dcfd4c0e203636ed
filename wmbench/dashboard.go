package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// dashboard is the read-only query API called in-process through
// tsdb.NewAPIHandler, one closed-loop client. The Europe archive has a
// deployment's shape: history written in batch (wmparse -archive), then a
// live tail with one Sync per tick (wmcollect -archive), which leaves
// one-snapshot blocks. One op is one view; every view makes the same
// requests, and the window and links rotate between views.
type dashboard struct {
	cfg     *config
	dir     string
	rd, crd *tsdb.Reader // crd serves the checks, so rd's counters are the ops'
	h, ch   http.Handler
	sim     *netsim.Simulator // ground truth for the checks

	views []view
	recs  [len(viewSpans)]recorder

	historyBytes, liveBytes int64

	respBytes int64
	digest    hash.Hash64
	digested  int
}

// viewSpans names each request of a view, in request order.
var viewSpans = [...]string{
	"tsdb.api.grid",      // step=1h grid over the window in the live-written tail
	"tsdb.api.link_raw",  // raw series of link 1
	"tsdb.api.link_raw",  // raw series of link 2
	"tsdb.api.link_step", // step=1h series of link 1
	"tsdb.api.link_step", // step=1h series of link 2
	"tsdb.api.grid",      // the same grid over an equal window of the batch history
	"tsdb.api.topology",  // topology at the window end
	"tsdb.api.events",    // events of the archive's last days
}

type view struct {
	from, to   time.Time // tail window
	hFrom, hTo time.Time // history window
	links      [2]tsdb.LinkKey
	reqs       [len(viewSpans)]*http.Request
}

func newDashboard(cfg *config, dir string) (workload, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	rng, month := seeded(cfg.seed)
	// The batch history is centred on the topology change, so the event
	// log holds its churn.
	start := change(month).Add(-time.Duration(cfg.sz.historyTicks/2) * tick)
	tailStart := start.Add(time.Duration(cfg.sz.historyTicks) * tick)
	end := tailStart.Add(time.Duration(cfg.sz.tailTicks-1) * tick)
	sim, err := newSimulator()
	if err != nil {
		return nil, st, err
	}
	w := &dashboard{cfg: cfg, dir: dir, digest: fnv.New64a()}
	if w.sim, err = newSimulator(); err != nil {
		return nil, st, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	path := filepath.Join(dir, "dashboard.tsdb")
	if w.historyBytes, err = writeBatch(path, 0, simStream(sim, wmap.Europe, start, cfg.sz.historyTicks, &st.inputs)); err != nil {
		return nil, st, err
	}
	t1, gen := time.Now(), st.inputs
	total, err := appendLive(path, simStream(sim, wmap.Europe, tailStart, cfg.sz.tailTicks, &st.inputs))
	if err != nil {
		return nil, st, err
	}
	st.tail = time.Since(t1) - (st.inputs - gen)
	w.liveBytes = total - w.historyBytes
	last, err := sim.MapAt(wmap.Europe, end)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0) - st.inputs

	t0 = time.Now()
	if w.rd, err = tsdb.OpenFile(path); err != nil {
		return nil, st, err
	}
	w.rd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
	w.h = tsdb.NewAPIHandler(w.rd)
	st.open = time.Since(t0)
	// The checks read through their own uncached reader, so they neither
	// touch rd's cache counters nor hold decoded blocks the views do not.
	if w.crd, err = tsdb.OpenFile(path); err != nil {
		w.close()
		return nil, st, err
	}
	w.crd.SetBlockCache(nil)
	w.ch = tsdb.NewAPIHandler(w.crd)

	// Window k starts k ticks into its section; each view takes the next
	// window offset and link pair of a seeded rotation. Windows that start
	// on the hour are left out: the planner serves their grids from the 1h
	// rollups, which would give one view in the rotation another
	// composition, and, when such a view comes first, leave per-link
	// column entries in the block cache that no other order creates.
	span := time.Duration(cfg.sz.tailTicks)*tick - cfg.sz.window
	var offsets []int
	for _, k := range rng.Perm(int(span/tick) + 1) {
		if from := tailStart.Add(time.Duration(k) * tick); !from.Truncate(time.Hour).Equal(from) {
			offsets = append(offsets, k)
		}
	}
	keys := tsdb.LinkKeysOf(last)
	order := rng.Perm(len(keys))
	eventsFrom := end.Add(-3 * 24 * time.Hour).Format(time.RFC3339)
	for s, k := range offsets {
		v := view{from: tailStart.Add(time.Duration(k) * tick), hFrom: start.Add(time.Duration(k) * tick)}
		v.to = v.from.Add(cfg.sz.window - tick)
		v.hTo = v.hFrom.Add(cfg.sz.window - tick)
		v.links = [2]tsdb.LinkKey{keys[order[(2*s)%len(keys)]], keys[order[(2*s+1)%len(keys)]]}
		win := "from=" + v.from.Format(time.RFC3339) + "&to=" + v.to.Format(time.RFC3339)
		hwin := "from=" + v.hFrom.Format(time.RFC3339) + "&to=" + v.hTo.Format(time.RFC3339)
		id0, id1 := v.links[0].ID(wmap.Europe), v.links[1].ID(wmap.Europe)
		for r, u := range [len(viewSpans)]string{
			"/api/v1/grid?map=europe&step=1h&" + win,
			"/api/v1/links/" + id0 + "/load?" + win,
			"/api/v1/links/" + id1 + "/load?" + win,
			"/api/v1/links/" + id0 + "/load?step=1h&" + win,
			"/api/v1/links/" + id1 + "/load?step=1h&" + win,
			"/api/v1/grid?map=europe&step=1h&" + hwin,
			"/api/v1/topology?map=europe&at=" + v.to.Format(time.RFC3339),
			"/api/v1/events?map=europe&from=" + eventsFrom,
		} {
			v.reqs[r] = httptest.NewRequest(http.MethodGet, u, nil)
		}
		w.views = append(w.views, v)
	}
	for k := range w.recs {
		w.recs[k].hdr = make(http.Header)
	}
	return w, st, nil
}

func (w *dashboard) op(i int, tr *tracer) error {
	v := &w.views[i%len(w.views)]
	for k, req := range v.reqs {
		rec := &w.recs[k]
		rec.reset()
		sp := tr.begin(viewSpans[k])
		w.h.ServeHTTP(rec, req)
		tr.end(sp)
	}
	return nil
}

// check verifies every response's status, folds the first rotation's
// bodies into the digest, and on one view in checkEvery compares grid rows
// with the per-link step=1h responses for their links, and the raw series
// and topology with the simulator.
func (w *dashboard) check(i int) (bool, error) {
	v := &w.views[i%len(w.views)]
	for k := range w.recs {
		rec := &w.recs[k]
		if rec.code != http.StatusOK {
			return true, fmt.Errorf("GET %s: status %d: %.200s", v.reqs[k].URL, rec.code, rec.body.Bytes())
		}
		w.respBytes += int64(rec.body.Len())
		if i < len(w.views) {
			w.digest.Write(rec.body.Bytes())
		}
	}
	if i < len(w.views) {
		w.digested++
	}
	if i%w.cfg.sz.checkEvery != 0 {
		return false, nil
	}
	for _, k := range []int{0, 5} {
		if err := w.checkGrid(v.reqs[k].URL, w.recs[k].body.Bytes(), i/w.cfg.sz.checkEvery); err != nil {
			return true, err
		}
	}
	truth, err := simMaps(w.sim, wmap.Europe, v.from, int(w.cfg.sz.window/tick))
	if err != nil {
		return true, err
	}
	for j := range v.links {
		if err := checkRawSeries(w.recs[1+j].body.Bytes(), v.links[j], truth); err != nil {
			return true, err
		}
	}
	if err := checkTopology(w.recs[6].body.Bytes(), truth[len(truth)-1]); err != nil {
		return true, err
	}
	return true, checkEvents(w.recs[7].body.Bytes())
}

// gridRowsChecked is how many grid rows one check compares with per-link
// responses; each check takes the next rows, so successive checks cover the
// grid. (A per-link step=1h series over the live-written tail costs
// milliseconds, so comparing every row of both grids would take seconds.)
const gridRowsChecked = 32

// checkGrid requires the grid rows of the n-th check to equal, series by
// series, the per-link step=1h response for the same window.
func (w *dashboard) checkGrid(u *url.URL, body []byte, n int) error {
	var grid struct {
		Links []map[string]json.RawMessage `json:"links"`
	}
	if err := json.Unmarshal(body, &grid); err != nil {
		return fmt.Errorf("grid %s: %w", u, err)
	}
	if len(grid.Links) == 0 {
		return fmt.Errorf("grid %s: no rows", u)
	}
	q := u.Query()
	suffix := "/load?step=1h&from=" + q.Get("from") + "&to=" + q.Get("to")
	var rec recorder
	rec.hdr = make(http.Header)
	for r := 0; r < min(gridRowsChecked, len(grid.Links)); r++ {
		row := grid.Links[(n*gridRowsChecked+r)%len(grid.Links)]
		var id string
		if err := json.Unmarshal(row["id"], &id); err != nil {
			return fmt.Errorf("grid %s: row id: %w", u, err)
		}
		rec.reset()
		w.ch.ServeHTTP(&rec, httptest.NewRequest(http.MethodGet, "/api/v1/links/"+id+suffix, nil))
		var per map[string]json.RawMessage
		if err := json.Unmarshal(rec.body.Bytes(), &per); rec.code != http.StatusOK || err != nil {
			return fmt.Errorf("link %s%s: status %d: %v", id, suffix, rec.code, err)
		}
		for _, s := range []string{"ab", "ba"} {
			if !bytes.Equal(row[s], per[s]) {
				return fmt.Errorf("grid %s: link %s series %s differs from the per-link response", u, id, s)
			}
		}
	}
	return nil
}

type point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// checkRawSeries compares a raw link-load response with the simulator's
// loads of that link at every snapshot of the window.
func checkRawSeries(body []byte, key tsdb.LinkKey, truth []*wmap.Map) error {
	var got struct{ AB, BA []point }
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("raw series %v: %w", key, err)
	}
	if len(got.AB) != len(truth) || len(got.BA) != len(truth) {
		return fmt.Errorf("raw series %v: %d/%d points, simulator has %d snapshots", key, len(got.AB), len(got.BA), len(truth))
	}
	for k, m := range truth {
		want, ok := linkOf(m, key)
		if !ok {
			return fmt.Errorf("raw series %v: link absent from the simulator at %s", key, m.Time)
		}
		if !got.AB[k].T.Equal(m.Time) || got.AB[k].V != float64(want.LoadAB) || got.BA[k].V != float64(want.LoadBA) {
			return fmt.Errorf("raw series %v at %s: %v/%v, simulator has %d/%d", key, m.Time, got.AB[k].V, got.BA[k].V, want.LoadAB, want.LoadBA)
		}
	}
	return nil
}

// checkTopology compares a topology response with the simulator's map.
func checkTopology(body []byte, want *wmap.Map) error {
	var got struct {
		Time  time.Time
		Nodes []struct{ Name, Kind string }
		Links []struct {
			A, B   string
			LabelA string `json:"label_a"`
			LabelB string `json:"label_b"`
			LoadAB int    `json:"load_ab"`
			LoadBA int    `json:"load_ba"`
		}
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	m := &wmap.Map{ID: want.ID, Time: got.Time}
	for _, n := range got.Nodes {
		m.Nodes = append(m.Nodes, wmap.Node{Name: n.Name, Kind: wmap.NodeKind(n.Kind)})
	}
	for _, l := range got.Links {
		m.Links = append(m.Links, wmap.Link{A: l.A, B: l.B, LabelA: l.LabelA, LabelB: l.LabelB,
			LoadAB: wmap.Load(l.LoadAB), LoadBA: wmap.Load(l.LoadBA)})
	}
	if !m.Time.Equal(want.Time) {
		return fmt.Errorf("topology at %s, want %s", m.Time, want.Time)
	}
	return sameMap(want, m)
}

// checkEvents requires the event log to hold the churn of the topology
// change the history spans.
func checkEvents(body []byte) error {
	var got struct {
		Events []struct{ Type string }
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	for _, e := range got.Events {
		if e.Type == "churn" {
			return nil
		}
	}
	return fmt.Errorf("events: no churn among %d events", len(got.Events))
}

func (w *dashboard) minOps() int { return 1 }

func (w *dashboard) bytesPerSnapshot() float64 {
	return float64(w.historyBytes+w.liveBytes) / float64(w.cfg.sz.historyTicks+w.cfg.sz.tailTicks)
}

func (w *dashboard) counters(ops int, _ map[string]*layerStats) map[string]float64 {
	cs := w.rd.BlockCache().Stats()
	ps, gs := w.rd.PlannerStats(), w.rd.GridStats()
	var tiers int64
	for _, n := range ps.Tiers {
		tiers += n
	}
	// Stepped series only (raw link requests bypass the planner), per-link
	// and grid rows alike.
	stepped := tiers + ps.Raw + gs.LinksPlanned + gs.LinksRaw
	return map[string]float64{
		"tsdb.api.response_bytes":   float64(w.respBytes) / float64(ops),
		"tsdb.planner.rollup_share": float64(tiers+gs.LinksPlanned) / float64(max(stepped, 1)),
		"tsdb.blockcache.hit_ratio": float64(cs.Hits) / float64(max(cs.Hits+cs.Misses, 1)),
		"tsdb.blockcache.evictions": float64(cs.Evictions) / float64(ops),
	}
}

func (w *dashboard) summary() string {
	return fmt.Sprintf("response digest %016x over %d views; %.0f B/snapshot batch-written, %.0f B/snapshot live-written",
		w.digest.Sum64(), w.digested,
		float64(w.historyBytes)/float64(w.cfg.sz.historyTicks), float64(w.liveBytes)/float64(w.cfg.sz.tailTicks))
}

func (w *dashboard) close() error { return closeReaders(w.dir, w.rd, w.crd) }

// recorder is a reusable http.ResponseWriter that keeps the body.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}
