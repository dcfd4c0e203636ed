package tsdb

import (
	"context"
	"errors"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ovhweather/internal/wmap"
)

// GET /api/v1/grid?map=&from=&to=&step=[&bands=1][&links=a,b] — the
// whole-map load query: every link's resampled series in one response,
// computed by the single-pass grid engine instead of N per-link requests.
// Each link's series is byte-identical to what /links/{id}/load would
// return for the same window.
//
// The response streams: per-link rows are encoded into a pooled buffer and
// flushed once it crosses gridFlushBytes, so a full-map month never
// materializes a multi-MB body. Small responses never flush and go out
// with an exact Content-Length like every other endpoint. Identical
// in-flight grids share one scan (singleflight keyed on the resolved
// query); bands=1 rides the same scan, since accumulators always carry the
// extremes.

// gridFlushBytes is the pooled-buffer level that triggers a chunked flush.
const gridFlushBytes = 256 << 10

// gridCall is one in-flight grid scan shared by identical requests.
type gridCall struct {
	done chan struct{}
	res  *gridResult
	err  error
}

func (a *api) handleGrid(w http.ResponseWriter, r *http.Request) {
	id, ok := a.queryMap(w, r)
	if !ok {
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
	if step == 0 { // absent or "0s"
		writeError(w, http.StatusBadRequest, "missing step parameter — the grid is always resampled")
		return
	}
	q := r.URL.Query()
	bands := q.Get("bands") == "1"

	var keys []LinkKey
	linksParam := q.Get("links")
	if linksParam != "" {
		for _, part := range strings.Split(linksParam, ",") {
			part = strings.TrimSpace(part)
			mid, key, ok := a.rd.ResolveLinkID(part)
			if !ok || mid != id {
				writeError(w, http.StatusNotFound, "unknown link id %q on map %s", part, id)
				return
			}
			keys = append(keys, key)
		}
	}

	sfKey := strings.Join([]string{"grid", string(id),
		from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano),
		step.String(), linksParam}, "\x00")
	etagParts := []string{sfKey}
	if bands {
		etagParts = append(etagParts, "bands")
	}
	if serveCached(w, r, a.etag(etagParts...), pinned) {
		return
	}

	res, err := a.gridShared(r.Context(), sfKey, func() (*gridResult, error) {
		res, err := a.scanDegrading(r.Context(), id, keys, from, to, step, &a.rd.grid.fallbacks)
		if err == nil {
			g := &a.rd.grid
			g.queries.Add(1)
			g.linksPlanned.Add(res.planned)
			g.linksRaw.Add(int64(len(res.links)) - res.planned)
			g.rows.Add(res.rows)
		}
		return res, err
	})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	a.writeGrid(w, r, id, from, to, step, bands, res)
}

// scanDegrading runs the grid scan, degrading to raw-only serving when a
// rollup block is corrupt — logged and counted in fallbacks, never a wrong
// answer.
func (a *api) scanDegrading(ctx context.Context, id wmap.MapID, keys []LinkKey, from, to time.Time, step time.Duration, fallbacks *atomic.Int64) (*gridResult, error) {
	res, err := a.rd.gridScan(ctx, id, keys, from, to, step, false)
	var ce *CorruptError
	if err != nil && errors.As(err, &ce) {
		log.Printf("tsdb: api: grid scan of %s: %v; falling back to raw scan", id, err)
		fallbacks.Add(1)
		res, err = a.rd.gridScan(ctx, id, keys, from, to, step, true)
	}
	return res, err
}

// gridShared collapses identical in-flight grids onto one scan. A waiter
// whose leader was cancelled (the leader's client hung up, not ours)
// retries and may become the new leader.
func (a *api) gridShared(ctx context.Context, key string, run func() (*gridResult, error)) (*gridResult, error) {
	for {
		a.gridMu.Lock()
		if a.gridCalls == nil {
			a.gridCalls = make(map[string]*gridCall)
		}
		if c, ok := a.gridCalls[key]; ok {
			a.gridMu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) &&
				ctx.Err() == nil {
				continue
			}
			if c.err == nil {
				a.rd.grid.dedups.Add(1)
			}
			return c.res, c.err
		}
		c := &gridCall{done: make(chan struct{})}
		a.gridCalls[key] = c
		a.gridMu.Unlock()
		c.res, c.err = run()
		a.gridMu.Lock()
		delete(a.gridCalls, key)
		a.gridMu.Unlock()
		close(c.done)
		return c.res, c.err
	}
}

// writeGrid encodes the scan: one row object per link, flushed in chunks
// once the pooled buffer crosses gridFlushBytes, with an exact
// Content-Length when everything fit in one buffer. r.Context() is checked
// at every link boundary: cancellation before the first byte answers 499,
// mid-stream it stops encoding work for a client that is gone.
func (a *api) writeGrid(w http.ResponseWriter, r *http.Request, id wmap.MapID, from, to time.Time, step time.Duration, bands bool, res *gridResult) {
	// The memo is shared across every link: one render per distinct mean
	// and window time.
	bp, memo := getEncBuf(), getSeriesMemo()
	b := *bp
	defer func() {
		*bp = b
		putEncBuf(bp)
		putSeriesMemo(memo)
	}()

	b = append(b, `{"map":`...)
	b = appendJSONString(b, string(id))
	b = append(b, `,"from":`...)
	b = appendJSONTime(b, from)
	b = append(b, `,"to":`...)
	b = appendJSONTime(b, to)
	b = append(b, `,"step":`...)
	b = appendJSONString(b, step.String())
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(res.links)), 10)
	b = append(b, `,"links":[`...)

	streamed := false
	ctx := r.Context()
	for li := range res.links {
		if ctx.Err() != nil {
			if !streamed {
				w.WriteHeader(statusClientClosedRequest)
			}
			return
		}
		if li > 0 {
			b = append(b, ',')
		}
		b = appendGridLink(b, id, &res.links[li], bands, memo)
		if len(b) >= gridFlushBytes {
			if !streamed {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				streamed = true
				a.rd.grid.streamed.Add(1)
			}
			if _, err := w.Write(b); err != nil {
				return // client gone mid-stream; stop encoding
			}
			b = b[:0]
		}
	}
	b = append(b, ']', '}', '\n')
	if streamed {
		w.Write(b)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// appendGridLink encodes one link row: the same identity fields as the
// per-link endpoint's meta, then appendLoadSeries — the encoder the
// per-link body uses, so the bytes per series match /links/{id}/load.
func appendGridLink(b []byte, id wmap.MapID, gl *gridLink, bands bool, memo *seriesMemo) []byte {
	k := gl.key
	// The ID is hex digits, which JSON never escapes.
	b = append(b, `{"id":"`...)
	b = k.appendID(b, id)
	b = append(b, `","a":`...)
	b = appendJSONString(b, k.A)
	b = append(b, `,"b":`...)
	b = appendJSONString(b, k.B)
	b = append(b, `,"label_a":`...)
	b = appendJSONString(b, k.LabelA)
	b = append(b, `,"label_b":`...)
	b = appendJSONString(b, k.LabelB)
	b = append(b, `,"ordinal":`...)
	b = strconv.AppendInt(b, int64(k.Ordinal), 10)
	b = appendLoadSeries(b, &gl.lw, bands, memo)
	return append(b, '}')
}
