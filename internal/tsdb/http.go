package tsdb

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// The wmserve query API: read-only JSON endpoints over one archive.
//
//	GET /api/v1/maps                         — archived maps with bounds
//	GET /api/v1/topology?map=&at=            — snapshot topology with link ids
//	GET /api/v1/links/{id}/load?from=&to=&step= — per-direction load series
//	GET /api/v1/imbalance?map=&at=           — parallel-link imbalance sets
//	GET /api/v1/stats                        — archive and block-cache counters
//
// Times are RFC3339; at defaults to the map's last snapshot, from/to to the
// archive bounds. step (a whole number of seconds) resamples the series
// into fixed averaged windows, exactly as stats.TimeSeries.Resample would
// over the raw points; it is served by the grid engine as a one-link scan.
// Link ids come from the topology endpoint and stay stable across
// snapshots (LinkKey.ID).
//
// Every data endpoint carries an ETag derived from the archive fingerprint
// and the resolved query, honors If-None-Match with 304, and sets
// Cache-Control — explicit historical queries are marked immutable so
// proxies stop re-fetching history. The fingerprint identifies the exact
// committed state being served: on a live archive it rolls forward with
// every Reader.Refresh that adopts appended blocks, so a stale client tag
// stops matching and the client re-fetches the grown data. The hot
// endpoints (load series, imbalance) encode into pooled buffers instead of
// a per-request json.Encoder and send Content-Length.

// DefaultMaxResponsePoints caps the raw series points one load response
// may carry; ranges that would exceed it are rejected with a hint to
// resample via step.
const DefaultMaxResponsePoints = 100_000

// statusClientClosedRequest is the nginx-convention status reported when
// the client's context is cancelled mid-query; nothing usually sees it,
// but tests and access logs do.
const statusClientClosedRequest = 499

// NewAPIHandler serves the query API over rd. The handler is safe for
// concurrent use and holds no mutable state beyond the reader's
// decoded-block cache, which is itself concurrency-safe.
func NewAPIHandler(rd *Reader) http.Handler {
	a := &api{rd: rd, maxPoints: DefaultMaxResponsePoints}
	return a.routes()
}

type api struct {
	rd        *Reader
	maxPoints int

	// hub, when non-nil, is the live event broadcaster backing
	// /api/v1/stream; the query endpoints work without it.
	hub *events.Broadcaster

	// gridCalls collapses identical in-flight grid scans; see http_grid.go.
	gridMu    sync.Mutex
	gridCalls map[string]*gridCall
}

func (a *api) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/maps", a.handleMaps)
	mux.HandleFunc("GET /api/v1/topology", a.handleTopology)
	mux.HandleFunc("GET /api/v1/links/{id}/load", a.handleLinkLoad)
	mux.HandleFunc("GET /api/v1/grid", a.handleGrid)
	mux.HandleFunc("GET /api/v1/imbalance", a.handleImbalance)
	mux.HandleFunc("GET /api/v1/events", a.handleEvents)
	mux.HandleFunc("GET /api/v1/stream", a.handleStream)
	mux.HandleFunc("GET /api/v1/stats", a.handleStats)
	return mux
}

// writeBody sends a fully built JSON body with its exact Content-Length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) // a failed write means the client is gone; nothing to do
}

// writeJSON marshals v into a buffer first, so an encoding failure can
// still produce a 500 instead of a half-written 200, and logs the failure
// rather than swallowing it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("tsdb: api: encoding response: %v", err)
		writeBody(w, http.StatusInternalServerError, []byte(`{"error":"response encoding failed"}`))
		return
	}
	writeBody(w, code, append(body, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// etag derives the entity tag for a response: the archive fingerprint
// (which covers every byte of data) mixed with the resolved query, so two
// requests that would serve the same bytes share a tag.
func (a *api) etag(parts ...string) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], a.rd.Fingerprint())
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return `"wm` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// serveCached sets the conditional-GET headers and answers 304 when the
// client already holds the entity. pinned marks queries whose every
// parameter is explicit — those select immutable history and may be cached
// hard; default-parameter queries track "latest" and must revalidate.
func serveCached(w http.ResponseWriter, r *http.Request, etag string, pinned bool) bool {
	h := w.Header()
	h.Set("ETag", etag)
	if pinned {
		h.Set("Cache-Control", "public, max-age=86400, immutable")
	} else {
		h.Set("Cache-Control", "public, max-age=60, must-revalidate")
	}
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, tag := range strings.Split(inm, ",") {
		tag = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tag), "W/"))
		if tag == etag || tag == "*" {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// queryMap resolves the required map parameter against the archive.
func (a *api) queryMap(w http.ResponseWriter, r *http.Request) (wmap.MapID, bool) {
	s := r.URL.Query().Get("map")
	if s == "" {
		writeError(w, http.StatusBadRequest, "missing map parameter")
		return "", false
	}
	id, err := wmap.ParseMapID(s)
	if err != nil {
		// Archives may hold non-backbone map ids; accept any archived id.
		id = wmap.MapID(s)
	}
	if _, _, ok := a.rd.Bounds(id); !ok {
		writeError(w, http.StatusNotFound, "map %q not in archive", s)
		return "", false
	}
	return id, true
}

// queryTime parses an optional RFC3339 parameter, with a fallback. given
// reports whether the parameter was present — pinned-history detection.
func queryTime(w http.ResponseWriter, r *http.Request, name string, fallback time.Time) (t time.Time, given, ok bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return fallback, false, true
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s: %v", name, err)
		return time.Time{}, true, false
	}
	return t, true, true
}

// queryRange parses the from/to window of a series query, defaulting to
// the map's archived bounds; pinned reports that both ends were given.
func (a *api) queryRange(w http.ResponseWriter, r *http.Request, id wmap.MapID) (from, to time.Time, pinned, ok bool) {
	bFrom, bTo, _ := a.rd.Bounds(id)
	from, fromGiven, ok := queryTime(w, r, "from", bFrom)
	if !ok {
		return from, to, false, false
	}
	to, toGiven, ok := queryTime(w, r, "to", bTo)
	return from, to, fromGiven && toGiven, ok
}

// queryStep parses the optional step parameter, zero when absent. Steps
// are whole seconds: window arithmetic is in seconds, and a sub-second
// step would ask for billions of windows.
func queryStep(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	s := r.URL.Query().Get("step")
	if s == "" {
		return 0, true
	}
	step, err := time.ParseDuration(s)
	if err != nil || step < 0 || step%time.Second != 0 {
		writeError(w, http.StatusBadRequest, "bad step %q: need a positive whole number of seconds", s)
		return 0, false
	}
	return step, true
}

// snapshotAt is the point-in-time preamble /topology and /imbalance share:
// resolve map and at (default: the map's last snapshot), answer a
// conditional GET, then materialize the snapshot, and look up its interned
// topology, unless the client has already gone. ok is false once the
// response is written.
func (a *api) snapshotAt(w http.ResponseWriter, r *http.Request, endpoint string) (m *wmap.Map, topo *wmap.Topology, ok bool) {
	id, ok := a.queryMap(w, r)
	if !ok {
		return nil, nil, false
	}
	_, last, _ := a.rd.Bounds(id)
	at, atGiven, ok := queryTime(w, r, "at", last)
	if !ok {
		return nil, nil, false
	}
	if serveCached(w, r, a.etag(endpoint, string(id), at.UTC().Format(time.RFC3339Nano)), atGiven) {
		return nil, nil, false
	}
	err := r.Context().Err()
	if err == nil {
		m, topo, err = a.rd.snapshotTopoAt(id, at)
	}
	if err != nil {
		writeQueryError(w, err)
		return nil, nil, false
	}
	return m, topo, true
}

type mapInfo struct {
	Map       wmap.MapID `json:"map"`
	Title     string     `json:"title"`
	From      time.Time  `json:"from"`
	To        time.Time  `json:"to"`
	Snapshots int        `json:"snapshots"`
}

func (a *api) handleMaps(w http.ResponseWriter, r *http.Request) {
	if serveCached(w, r, a.etag("maps"), false) {
		return
	}
	out := make([]mapInfo, 0, len(a.rd.Maps()))
	for _, id := range a.rd.Maps() {
		from, to, _ := a.rd.Bounds(id)
		out = append(out, mapInfo{
			Map: id, Title: id.Title(), From: from, To: to,
			Snapshots: a.rd.Snapshots(id),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"maps": out})
}

func (a *api) handleTopology(w http.ResponseWriter, r *http.Request) {
	m, _, ok := a.snapshotAt(w, r, "topology")
	if !ok {
		return
	}
	bp := getEncBuf()
	b := appendTopologyJSON((*bp)[:0], m, LinkKeysOf(m))
	writeBody(w, http.StatusOK, b)
	*bp = b
	putEncBuf(bp)
}

func (a *api) handleLinkLoad(w http.ResponseWriter, r *http.Request) {
	linkID := r.PathValue("id")
	id, key, ok := a.rd.ResolveLinkID(linkID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown link id %q", linkID)
		return
	}
	from, to, pinned, ok := a.queryRange(w, r, id)
	if !ok {
		return
	}
	step, ok := queryStep(w, r)
	if !ok {
		return
	}
	bands := r.URL.Query().Get("bands") == "1"
	if bands && step <= 0 {
		writeError(w, http.StatusBadRequest, "bands=1 requires a step — min/max bands are per resample window")
		return
	}
	etagParts := []string{"load", linkID,
		from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano), step.String()}
	if bands {
		etagParts = append(etagParts, "bands")
	}
	if serveCached(w, r, a.etag(etagParts...), pinned) {
		return
	}
	if step <= 0 {
		// Two directed points per snapshot; the index bound costs no decode.
		if raw := 2 * a.rd.rangePointCount(id, from, to); raw > a.maxPoints {
			hint := suggestStep(a.rd.st(), id, from, to, raw, a.maxPoints)
			writeError(w, http.StatusBadRequest,
				"range holds ~%d raw points, over the %d-point response cap; resample with step (e.g. step=%s)",
				raw, a.maxPoints, formatStepParam(hint))
			return
		}
		a.serveRawLoad(w, r, linkID, id, key, from, to, step)
		return
	}

	// A one-link grid scan: rollup tiers serve what they provably can, raw
	// blocks the rest; a window count over maxGridCells is a 400 with a
	// coarser step.
	res, err := a.scanDegrading(r.Context(), id, []LinkKey{key}, from, to, step, &a.rd.planner.fallbacks)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	gl := &res.links[0]
	if gl.plan != nil {
		a.rd.countTier(gl.plan.res)
	} else {
		a.rd.planner.raw.Add(1)
	}
	a.serveWindowLoad(w, r, linkID, id, key, from, to, step, bands, &gl.lw)
}

// serveWindowLoad encodes one link's windows behind the load meta. A client
// that hung up between the scan and the encode gets 499 instead of a body
// nobody will read.
func (a *api) serveWindowLoad(w http.ResponseWriter, r *http.Request, linkID string, id wmap.MapID, key LinkKey, from, to time.Time, step time.Duration, bands bool, lw *loadWindows) {
	if r.Context().Err() != nil {
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	bp, memo := getEncBuf(), getSeriesMemo()
	b := appendLoadMeta(*bp, linkID, id, key, from, to, step)
	b = appendLoadSeries(b, lw, bands, memo)
	b = append(b, '}', '\n')
	writeBody(w, http.StatusOK, b)
	*bp = b
	putEncBuf(bp)
	putSeriesMemo(memo)
}

// appendLoadSeries appends the resampled series fields of a per-link body
// and of a grid row alike: the ab and ba means, then with bands the
// per-direction min/max series. The memo carries rendered means and
// window times across series — and, for a grid, across every link in the
// response.
func appendLoadSeries(b []byte, lw *loadWindows, bands bool, memo *seriesMemo) []byte {
	memo.times.use(lw)
	b = append(b, `,"ab":`...)
	b = appendWindowMeans(b, lw, false, memo)
	b = append(b, `,"ba":`...)
	b = appendWindowMeans(b, lw, true, memo)
	if !bands {
		return b
	}
	b = append(b, `,"ab_min":`...)
	b = appendWindowExtremes(b, lw, &memo.times, func(w *loadWindow) uint8 { return w.abMin })
	b = append(b, `,"ab_max":`...)
	b = appendWindowExtremes(b, lw, &memo.times, func(w *loadWindow) uint8 { return w.abMax })
	b = append(b, `,"ba_min":`...)
	b = appendWindowExtremes(b, lw, &memo.times, func(w *loadWindow) uint8 { return w.baMin })
	b = append(b, `,"ba_max":`...)
	return appendWindowExtremes(b, lw, &memo.times, func(w *loadWindow) uint8 { return w.baMax })
}

// appendWindowMeans appends one direction's mean series, skipping empty
// windows exactly as Resample does.
func appendWindowMeans(b []byte, lw *loadWindows, ba bool, memo *seriesMemo) []byte {
	b = append(b, '[')
	first := true
	for k := range lw.wins {
		win := &lw.wins[k]
		if win.n == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		sum := win.ab
		if ba {
			sum = win.ba
		}
		b = append(b, `{"t":`...)
		b = memo.times.appendTime(b, k)
		b = append(b, `,"v":`...)
		b = memo.means.appendMean(b, sum, win.n)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendWindowExtremes appends one per-window extreme series (integers).
func appendWindowExtremes(b []byte, lw *loadWindows, times *windowTimes, sel func(w *loadWindow) uint8) []byte {
	b = append(b, '[')
	first := true
	for k := range lw.wins {
		win := &lw.wins[k]
		if win.n == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"t":`...)
		b = times.appendTime(b, k)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(sel(win)), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// formatStepParam renders a duration the way the step parameter parses it
// (time.ParseDuration has no day unit, so a day is 24h).
func formatStepParam(d time.Duration) string {
	sec := int64(d / time.Second)
	switch {
	case sec%3600 == 0:
		return fmt.Sprintf("%dh", sec/3600)
	case sec%60 == 0:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// serveRawLoad streams an unresampled series straight from the decoded
// column slices: each block callback appends the ab points to the response
// buffer and the ba points to a second pooled buffer spliced in at the
// end, so a raw response never materializes a TimeSeries — on a hot cache
// the whole request is two buffer fills over cached arrays.
func (a *api) serveRawLoad(w http.ResponseWriter, r *http.Request, linkID string, id wmap.MapID, key LinkKey, from, to time.Time, step time.Duration) {
	bp, bbp := getEncBuf(), getEncBuf()
	defer putEncBuf(bp)
	defer putEncBuf(bbp)
	b := appendLoadMeta(*bp, linkID, id, key, from, to, step)
	b = append(b, `,"ab":[`...)
	bb := *bbp

	// Raw load values are integers, so strconv.AppendInt writes the same
	// bytes appendJSONFloat would (its integer fast path).
	var encAB, encBA timeEncoder
	first := true
	err := a.rd.LinkColumnsContext(r.Context(), id, key, from, to,
		func(times []int64, abCol, baCol []wmap.Load) error {
			for k, sec := range times {
				if !first {
					b = append(b, ',')
					bb = append(bb, ',')
				}
				first = false
				b = append(b, `{"t":`...)
				b = encAB.appendUnix(b, sec)
				b = append(b, `,"v":`...)
				b = strconv.AppendInt(b, int64(abCol[k]), 10)
				b = append(b, '}')
				bb = append(bb, `{"t":`...)
				bb = encBA.appendUnix(bb, sec)
				bb = append(bb, `,"v":`...)
				bb = strconv.AppendInt(bb, int64(baCol[k]), 10)
				bb = append(bb, '}')
			}
			return nil
		})
	*bp, *bbp = b, bb
	if err != nil {
		writeQueryError(w, err)
		return
	}
	b = append(b, `],"ba":[`...)
	b = append(b, bb...)
	b = append(b, ']', '}', '\n')
	writeBody(w, http.StatusOK, b)
	*bp = b
}

// writeQueryError maps a query failure onto the response, the same for
// every data endpoint: a cancelled client gets the nginx-convention 499
// and no body, an unknown map, link or snapshot 404, an over-cap grid 400
// with its step hint, anything else (a corrupt archive) 500.
func writeQueryError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var tooBig *GridTooLargeError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		w.WriteHeader(statusClientClosedRequest)
		return
	case errors.As(err, &tooBig):
		code = http.StatusBadRequest
	case errors.Is(err, ErrUnknownMap) || errors.Is(err, ErrUnknownLink) || errors.Is(err, ErrNoSnapshot):
		code = http.StatusNotFound
	}
	writeError(w, code, "%v", err)
}

// appendLoadMeta appends the response prefix shared by the raw and
// resampled load paths: the open brace through the "step" field.
func appendLoadMeta(b []byte, linkID string, id wmap.MapID, key LinkKey, from, to time.Time, step time.Duration) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, linkID)
	b = append(b, `,"map":`...)
	b = appendJSONString(b, string(id))
	b = append(b, `,"a":`...)
	b = appendJSONString(b, key.A)
	b = append(b, `,"b":`...)
	b = appendJSONString(b, key.B)
	b = append(b, `,"label_a":`...)
	b = appendJSONString(b, key.LabelA)
	b = append(b, `,"label_b":`...)
	b = appendJSONString(b, key.LabelB)
	b = append(b, `,"ordinal":`...)
	b = strconv.AppendInt(b, int64(key.Ordinal), 10)
	b = append(b, `,"from":`...)
	b = appendJSONTime(b, from)
	b = append(b, `,"to":`...)
	b = appendJSONTime(b, to)
	b = append(b, `,"step":`...)
	return appendJSONString(b, step.String())
}

func (a *api) handleImbalance(w http.ResponseWriter, r *http.Request) {
	m, topo, ok := a.snapshotAt(w, r, "imbalance")
	if !ok {
		return
	}
	imbs := topo.Imbalances(m.Links, wmap.PaperImbalanceOptions())

	bp := getEncBuf()
	b := *bp
	b = append(b, `{"map":`...)
	b = appendJSONString(b, string(m.ID))
	b = append(b, `,"time":`...)
	b = appendJSONTime(b, m.Time)
	b = append(b, `,"imbalances":[`...)
	for i, im := range imbs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = appendJSONString(b, im.From)
		b = append(b, `,"to":`...)
		b = appendJSONString(b, im.To)
		b = append(b, `,"internal":`...)
		b = strconv.AppendBool(b, im.Internal)
		b = append(b, `,"spread":`...)
		b = strconv.AppendInt(b, int64(im.Spread), 10)
		b = append(b, `,"links":`...)
		b = strconv.AppendInt(b, int64(im.Links), 10)
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	writeBody(w, http.StatusOK, b)
	*bp = b
	putEncBuf(bp)
}

// coveredRange is one map's archived time span on the stats endpoint — how
// a live tail advertises what a follower may query right now.
type coveredRange struct {
	Map       wmap.MapID `json:"map"`
	From      time.Time  `json:"from"`
	To        time.Time  `json:"to"`
	Snapshots int        `json:"snapshots"`
}

func (a *api) handleStats(w http.ResponseWriter, r *http.Request) {
	// Pin one committed state so every figure in the response — totals,
	// fingerprint, covered ranges — describes the same commit even while a
	// Refresh lands mid-request.
	st := a.rd.st()
	snapshots := 0
	covered := make([]coveredRange, 0, len(st.mapIDs))
	for _, id := range st.mapIDs {
		from, to, _ := st.bounds(id)
		n := st.snapshots(id)
		snapshots += n
		covered = append(covered, coveredRange{Map: id, From: from, To: to, Snapshots: n})
	}
	cs := a.rd.BlockCache().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"archive": map[string]any{
			"fingerprint":   strconv.FormatUint(st.fp, 16),
			"live":          st.live,
			"version":       st.version,
			"blocks":        len(st.blocks),
			"rollup_blocks": len(st.rollups),
			"event_blocks":  len(st.events),
			"snapshots":     snapshots,
			"topologies":    len(st.topos),
			"strings":       len(st.strs),
			"bytes":         st.bytes,
			"covered":       covered,
		},
		"block_cache": map[string]any{
			"enabled": a.rd.BlockCache() != nil,
			"stats":   cs,
		},
		"planner": a.rd.PlannerStats(),
		"grid":    a.rd.GridStats(),
		"events":  a.eventStats(st),
	})
}
