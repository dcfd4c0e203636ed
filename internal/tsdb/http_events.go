package tsdb

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/wmap"
)

// The evolution-event endpoints:
//
//	GET /api/v1/events?map=&type=&from=&to= — archived events, filtered
//	GET /api/v1/stream?map=&type=           — live events over SSE
//
// /events serves the persisted event log through the same conditional-GET
// and pooled-encoding discipline as the load endpoints. /stream subscribes
// the connection to the server's live broadcaster (wmserve -live): each
// event arrives as one SSE frame named after its type, with a keepalive
// comment every sseHeartbeat so idle proxies hold the connection open. A
// subscriber that stops draining loses events (bounded queue, counted in
// /api/v1/stats) rather than stalling ingest.

// sseSubscriberQueue is each stream connection's event-queue capacity; a
// client this far behind is dropping frames by design.
const sseSubscriberQueue = 256

// sseHeartbeat paces keepalive comments on idle streams.
const sseHeartbeat = 15 * time.Second

// NewAPIHandlerWithStream is NewAPIHandler plus live streaming: events
// published to hub fan out to /api/v1/stream subscribers. A nil hub serves
// the query API with /api/v1/stream answering 503.
func NewAPIHandlerWithStream(rd *Reader, hub *events.Broadcaster) http.Handler {
	a := &api{rd: rd, maxPoints: DefaultMaxResponsePoints, hub: hub}
	return a.routes()
}

// parseEventFilter resolves the shared query parameters of /events and
// /stream. The map is validated against the archive; types parse through
// events.ParseType, comma-separated.
func (a *api) parseEventFilter(w http.ResponseWriter, r *http.Request) (f EventFilter, fromGiven, toGiven, ok bool) {
	q := r.URL.Query()
	if s := q.Get("map"); s != "" {
		id, err := wmap.ParseMapID(s)
		if err != nil {
			id = wmap.MapID(s) // archives may hold non-backbone ids
		}
		f.Map = id
	}
	if s := q.Get("type"); s != "" {
		for _, part := range strings.Split(s, ",") {
			ty, err := events.ParseType(strings.TrimSpace(part))
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return f, false, false, false
			}
			f.Types = append(f.Types, ty)
		}
	}
	f.From, fromGiven, ok = queryTime(w, r, "from", time.Time{})
	if !ok {
		return f, false, false, false
	}
	f.To, toGiven, ok = queryTime(w, r, "to", time.Time{})
	if !ok {
		return f, false, false, false
	}
	return f, fromGiven, toGiven, true
}

func (a *api) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, fromGiven, toGiven, ok := a.parseEventFilter(w, r)
	if !ok {
		return
	}
	parts := []string{"events", string(f.Map),
		f.From.UTC().Format(time.RFC3339Nano), f.To.UTC().Format(time.RFC3339Nano)}
	for _, ty := range f.Types {
		parts = append(parts, ty.String())
	}
	if serveCached(w, r, a.etag(parts...), fromGiven && toGiven) {
		return
	}
	evs, err := a.rd.Events(r.Context(), f)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if len(evs) > a.maxPoints {
		writeError(w, http.StatusBadRequest,
			"%d events exceed the %d-event response cap; narrow the window with from/to", len(evs), a.maxPoints)
		return
	}

	bp := getEncBuf()
	b := *bp
	// Pre-size from the event count: a row encodes to well under 256 bytes
	// (bounded fields plus the prebuilt summary), so one up-front grow
	// replaces log2(n) doubling copies of a multi-MB body.
	if need := 128 + 256*len(evs); cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(evs)), 10)
	if f.Map != "" {
		b = append(b, `,"map":`...)
		b = appendJSONString(b, string(f.Map))
	}
	b = append(b, `,"events":[`...)
	for i := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEvent(b, &evs[i])
	}
	b = append(b, ']', '}', '\n')
	writeBody(w, http.StatusOK, b)
	*bp = b
	putEncBuf(bp)
}

// appendEvent encodes one event. Fields that do not apply to the event's
// type are omitted, so churn rows do not carry loads and congestion rows do
// not carry deltas.
func appendEvent(b []byte, ev *events.Event) []byte {
	b = append(b, `{"type":`...)
	b = appendJSONString(b, ev.Type.String())
	b = append(b, `,"map":`...)
	b = appendJSONString(b, string(ev.Map))
	b = append(b, `,"time":`...)
	b = appendJSONTime(b, ev.Time)
	if ev.Node != "" {
		b = append(b, `,"node":`...)
		b = appendJSONString(b, ev.Node)
	}
	if ev.A != "" {
		b = append(b, `,"a":`...)
		b = appendJSONString(b, ev.A)
		b = append(b, `,"b":`...)
		b = appendJSONString(b, ev.B)
		if ev.LabelA != "" {
			b = append(b, `,"label_a":`...)
			b = appendJSONString(b, ev.LabelA)
		}
		if ev.LabelB != "" {
			b = append(b, `,"label_b":`...)
			b = appendJSONString(b, ev.LabelB)
		}
		b = append(b, `,"ordinal":`...)
		b = strconv.AppendInt(b, int64(ev.Ordinal), 10)
	}
	if ev.Delta != 0 {
		b = append(b, `,"delta":`...)
		b = strconv.AppendInt(b, int64(ev.Delta), 10)
	}
	switch ev.Type {
	case events.TypeMaintenance, events.TypeCongestionOnset, events.TypeCongestionClear:
		b = append(b, `,"load":`...)
		b = strconv.AppendInt(b, int64(ev.Load), 10)
	case events.TypeUpgrade:
		b = append(b, `,"confirmed":`...)
		b = strconv.AppendBool(b, ev.Confirmed)
		if ev.Gbps > 0 {
			b = append(b, `,"gbps":`...)
			b = strconv.AppendInt(b, int64(ev.Gbps), 10)
		}
	}
	b = append(b, `,"summary":`...)
	if ev.Summary != "" {
		b = appendJSONString(b, ev.Summary)
	} else {
		b = appendJSONString(b, ev.Summarize()) // hand-built event: render now
	}
	return append(b, '}')
}

func (a *api) handleStream(w http.ResponseWriter, r *http.Request) {
	if a.hub == nil {
		writeError(w, http.StatusServiceUnavailable, "event streaming is not enabled on this server (start wmserve with -live)")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	f, _, _, ok := a.parseEventFilter(w, r)
	if !ok {
		return
	}
	sub := a.hub.Subscribe(sseSubscriberQueue)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, ": connected\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	fromU, toU := rangeBounds(f.From, f.To)
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, open := <-sub.C():
			if !open {
				return // broadcaster shut down: server is going away
			}
			if f.Map != "" && ev.Map != f.Map {
				continue
			}
			if u := ev.Time.Unix(); u < fromU || u > toU || !f.wantType(ev.Type) {
				continue
			}
			bp := getEncBuf()
			b := append(*bp, "event: "...)
			b = append(b, ev.Type.String()...)
			b = append(b, "\ndata: "...)
			b = appendEvent(b, &ev)
			b = append(b, '\n', '\n')
			_, err := w.Write(b)
			*bp = b
			putEncBuf(bp)
			if err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// eventStats is the /api/v1/stats "events" group: the archive's event-log
// footprint plus, when live streaming is on, the broadcaster counters —
// subscriber count, published and dropped totals, and per-type fire counts.
func (a *api) eventStats(st *readerState) map[string]any {
	g := map[string]any{
		"streaming": a.hub != nil,
		"frames":    len(st.events),
	}
	if a.hub != nil {
		g["broadcast"] = a.hub.Stats()
	}
	return g
}
