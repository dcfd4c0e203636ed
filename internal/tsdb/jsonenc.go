// Every function in this file runs per point of an API response body;
// the whole file is a hot path for wmlint's allocation rules.
//
//wm:hotpath

package tsdb

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"ovhweather/internal/wmap"
)

// Append-style JSON encoding for the hot API endpoints. The per-request
// json.Encoder walked every response through reflection and allocated a
// fresh buffer each time; these helpers build the body into a pooled byte
// slice instead, so a hot-cache serve allocates (almost) nothing and the
// handler knows the Content-Length before writing.

// encPool recycles response buffers. Buffers that grew past
// maxPooledEncBuf (a pathological full-range series) are dropped rather
// than pinned forever.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

const maxPooledEncBuf = 1 << 20

func getEncBuf() *[]byte {
	return encPool.Get().(*[]byte)
}

func putEncBuf(bp *[]byte) {
	if cap(*bp) > maxPooledEncBuf {
		return
	}
	*bp = (*bp)[:0]
	encPool.Put(bp)
}

// hexEsc spells the \u00XX escape digits for control bytes.
const hexEsc = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string. The fast path copies
// spans without escapable bytes in one append; quotes, backslashes, and
// control characters are escaped, and non-ASCII UTF-8 passes through raw
// (valid JSON).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexEsc[c>>4], hexEsc[c&0xf])
		}
		start = i + 1
	}
	return append(append(b, s[start:]...), '"')
}

// appendJSONStringHTML appends s quoted exactly as encoding/json's Marshal
// renders a string: appendJSONString's escapes, \b and \f by name, the
// HTML-significant <, > and & as \u003c, \u003e and \u0026, U+2028 and
// U+2029 escaped, and each byte of invalid UTF-8 replaced by \ufffd. The
// fast path still copies runs of plain bytes in one append.
func appendJSONStringHTML(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexEsc[c>>4], hexEsc[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexEsc[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendTopologyJSON appends the /api/v1/topology body for snapshot m,
// whose link keys are keys: byte for byte what encoding/json's
// MarshalIndent(v, "", "  ") renders for v = {"map", "time", "nodes":
// [{"name", "kind"}], "links": [{"id", "a", "b", "label_a", "label_b",
// "load_ab", "load_ba"}]} with the top-level keys sorted, then a newline.
func appendTopologyJSON(b []byte, m *wmap.Map, keys []LinkKey) []byte {
	b = append(b, "{\n  \"links\": ["...)
	for i := range m.Links {
		l := &m.Links[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"id\": \""...)
		b = keys[i].appendID(b, m.ID)
		b = append(b, "\",\n      \"a\": "...)
		b = appendJSONStringHTML(b, l.A)
		b = append(b, ",\n      \"b\": "...)
		b = appendJSONStringHTML(b, l.B)
		b = append(b, ",\n      \"label_a\": "...)
		b = appendJSONStringHTML(b, l.LabelA)
		b = append(b, ",\n      \"label_b\": "...)
		b = appendJSONStringHTML(b, l.LabelB)
		b = append(b, ",\n      \"load_ab\": "...)
		b = strconv.AppendInt(b, int64(l.LoadAB), 10)
		b = append(b, ",\n      \"load_ba\": "...)
		b = strconv.AppendInt(b, int64(l.LoadBA), 10)
		b = append(b, "\n    }"...)
	}
	if len(m.Links) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"map\": "...)
	b = appendJSONStringHTML(b, string(m.ID))
	b = append(b, ",\n  \"nodes\": ["...)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendJSONStringHTML(b, n.Name)
		b = append(b, ",\n      \"kind\": "...)
		b = appendJSONStringHTML(b, string(n.Kind))
		b = append(b, "\n    }"...)
	}
	if len(m.Nodes) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"time\": "...)
	b = appendJSONTime(b, m.Time)
	return append(b, "\n}\n"...)
}

// appendJSONTime appends t exactly as encoding/json renders a time.Time: a
// quoted RFC 3339 string with nanoseconds when present. Archive timestamps
// are whole-second UTC instants, which take a layout-free fast path —
// AppendFormat's layout interpretation is a measurable fraction of a hot
// series response.
func appendJSONTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	if _, off := t.Zone(); off == 0 && t.Nanosecond() == 0 {
		if sec := t.Unix(); sec >= rfc3339FastMin && sec < rfc3339FastMax {
			b = appendRFC3339UTC(b, sec)
			return append(b, '"')
		}
	}
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// The fast formatter covers four-digit years; anything else (year 0 or
// five digits) falls back to AppendFormat.
const (
	rfc3339FastMin = -62135596800 // 0001-01-01T00:00:00Z
	rfc3339FastMax = 253402300800 // 10000-01-01T00:00:00Z
)

// digitPairs holds "00" through "99" so two digits cost one table copy.
var digitPairs = func() (p [200]byte) {
	for i := 0; i < 100; i++ {
		p[2*i] = byte('0' + i/10)
		p[2*i+1] = byte('0' + i%10)
	}
	return
}()

func append2(b []byte, v int) []byte {
	return append(b, digitPairs[2*v], digitPairs[2*v+1])
}

// splitDays splits a unix-seconds instant into civil days since the epoch
// and the second of day.
func splitDays(sec int64) (days, rem int64) {
	days = sec / 86400
	rem = sec % 86400
	if rem < 0 {
		rem += 86400
		days--
	}
	return days, rem
}

// appendCivilDate appends days (civil days since 1970-01-01) as
// "2006-01-02". The split is Howard Hinnant's days-from-civil inverse.
func appendCivilDate(b []byte, days int64) []byte {
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	month := mp + 3
	if mp >= 10 {
		month = mp - 9
	}
	year := yoe + era*400
	if month <= 2 {
		year++
	}
	b = append2(b, int(year)/100)
	b = append2(b, int(year)%100)
	b = append(b, '-')
	b = append2(b, int(month))
	b = append(b, '-')
	return append2(b, int(day))
}

// appendClock appends the second of day rem as "15:04:05Z".
func appendClock(b []byte, rem int64) []byte {
	b = append2(b, int(rem/3600))
	b = append(b, ':')
	b = append2(b, int(rem/60%60))
	b = append(b, ':')
	b = append2(b, int(rem%60))
	return append(b, 'Z')
}

// appendRFC3339UTC appends sec as "2006-01-02T15:04:05Z".
func appendRFC3339UTC(b []byte, sec int64) []byte {
	days, rem := splitDays(sec)
	b = appendCivilDate(b, days)
	b = append(b, 'T')
	return appendClock(b, rem)
}

// timeEncoder renders a run of timestamps, memoizing the formatted date
// so consecutive same-day instants — every series response, where points
// sit minutes apart — pay only for the clock digits. Zero value is ready.
type timeEncoder struct {
	day    int64
	prefix [11]byte // "2006-01-02T"
	valid  bool
}

// appendUnix renders a whole-second UTC instant given as unix seconds —
// the form archive time columns store — exactly as appendJSONTime would.
func (e *timeEncoder) appendUnix(b []byte, sec int64) []byte {
	if sec < rfc3339FastMin || sec >= rfc3339FastMax {
		return appendJSONTime(b, time.Unix(sec, 0).UTC())
	}
	days, rem := splitDays(sec)
	if !e.valid || days != e.day {
		p := appendCivilDate(e.prefix[:0], days)
		e.prefix[len(p)] = 'T'
		e.day, e.valid = days, true
	}
	b = append(b, '"')
	b = append(b, e.prefix[:]...)
	b = appendClock(b, rem)
	return append(b, '"')
}

// quotedTimeLen is the length of a quoted fast-range RFC 3339 UTC instant,
// `"2006-01-02T15:04:05Z"`: every window start the memo holds is this wide.
const quotedTimeLen = 22

// maxWindowTimes caps the windows one windowTimes table holds (about
// 1.4 MB of rendered times); windows past it render directly.
const maxWindowTimes = 1 << 16

// windowTimes caches the quoted start times of one window grid within a
// response. Every series anchored at the same (t0, step) starts its k-th
// window at the same second, so a grid whose links share an anchor renders
// each time once instead of twice per link. Entry k sits at
// buf[quotedTimeLen*k:] and is rendered on first use; an unrendered entry
// is zero bytes. A series with another anchor resets the table. Entries
// come from timeEncoder.appendUnix, so the bytes are the unmemoized ones.
type windowTimes struct {
	t0, step int64
	buf      []byte
	enc      timeEncoder
}

// use points the table at lw's window grid, clearing it when the anchor
// or step differs from the one it holds. An empty series renders no time
// and leaves the table as it is.
func (m *windowTimes) use(lw *loadWindows) {
	if len(lw.wins) == 0 || lw.t0 == m.t0 && lw.step == m.step {
		return
	}
	m.t0, m.step, m.buf = lw.t0, lw.step, m.buf[:0]
	if need := quotedTimeLen * min(len(lw.wins), maxWindowTimes); cap(m.buf) < need {
		m.buf = make([]byte, 0, need)
	}
}

// appendTime appends the quoted start of window k of the grid set by use.
func (m *windowTimes) appendTime(b []byte, k int) []byte {
	sec := m.t0 + int64(k)*m.step
	if k >= maxWindowTimes || sec < rfc3339FastMin || sec >= rfc3339FastMax {
		return m.enc.appendUnix(b, sec)
	}
	at := quotedTimeLen * k
	if end := at + quotedTimeLen; end > len(m.buf) {
		m.buf = append(m.buf, make([]byte, end-len(m.buf))...)
	}
	if m.buf[at] == 0 {
		m.enc.appendUnix(m.buf[at:at], sec)
	}
	return append(b, m.buf[at:at+quotedTimeLen]...)
}

// seriesMemo is the render cache every series of one body shares: window
// means and window start times. Each entry is a function of its key alone,
// so a memo pooled by one response serves the next as it is left.
type seriesMemo struct {
	means meanMemo
	times windowTimes
}

// memoPool recycles seriesMemo tables across responses.
var memoPool = sync.Pool{New: func() any { return new(seriesMemo) }}

// getSeriesMemo returns a pooled memo for one response, which picks the
// window count its mean table holds afresh.
func getSeriesMemo() *seriesMemo {
	m := memoPool.Get().(*seriesMemo)
	m.means.chosen = false
	return m
}

// putSeriesMemo returns m to the pool, without a time table that grew
// past maxPooledEncBuf.
func putSeriesMemo(m *seriesMemo) {
	if cap(m.times.buf) > maxPooledEncBuf {
		m.times = windowTimes{}
	}
	memoPool.Put(m)
}

// appendJSONFloat appends v exactly as encoding/json renders a float64:
// shortest round-trippable decimal, fixed-point inside [1e-6, 1e21),
// exponent form (with the leading zero of small exponents trimmed)
// outside. Series values come from integer loads and their window
// averages; the raw (unresampled) series is all integers, which skip the
// shortest-float search for a plain AppendInt.
func appendJSONFloat(b []byte, v float64) []byte {
	if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) &&
		i > -(1<<53) && i < 1<<53 {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n := len(b)
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" to "e-9".
		if m := len(b); m-n >= 4 && b[m-4] == 'e' && b[m-3] == '-' && b[m-2] == '0' {
			b[m-2] = b[m-1]
			b = b[:m-1]
		}
	}
	return b
}

// meanMemo caches rendered window means. A window mean is the rational
// sum/n with sum bounded by 100·n (loads are percentages), and every series
// in a response shares one step — so the same window sample count n recurs
// everywhere and the value vocabulary is at most a few thousand entries
// even when a grid emits hundreds of thousands of windows. Rendering each
// distinct (sum, n) once and replaying the bytes skips the shortest-float
// search that otherwise dominates encode time. Entries are produced by
// appendJSONFloat itself, so memoized output is byte-identical to the
// unmemoized path. The table holds offsets into one arena, so moving it to
// another n clears it in place.
type meanMemo struct {
	chosen bool     // this response has picked n
	n      int64    // window sample count the table holds
	spans  []uint32 // sum -> its rendering, arena[s>>5:][:s&31]; 0 = not yet rendered
	arena  []byte   // backing storage for rendered entries
}

// maxMeanMemoSum caps the table size: window counts whose sum range
// 100·n exceeds it (steps coarser than a few hours of 5-min samples)
// fall back to direct formatting.
const maxMeanMemoSum = 1 << 13

// appendMean appends the JSON rendering of sum/n, memoized. Windows whose
// count differs from the first one the memo sees in a response (partial
// edge windows, mixed tiers) or whose sum falls outside the table format
// directly — same bytes, no cache.
func (m *meanMemo) appendMean(b []byte, sum, n int64) []byte {
	if !m.chosen && n > 0 && 100*n <= maxMeanMemoSum {
		m.chosen = true
		if n != m.n { // else the pooled table already holds n
			m.n = n
			m.arena = m.arena[:0]
			if size := int(100*n + 1); cap(m.spans) >= size {
				m.spans = m.spans[:size]
				clear(m.spans)
			} else {
				m.spans = make([]uint32, size)
			}
		}
	}
	if n != m.n || sum < 0 || sum >= int64(len(m.spans)) {
		return appendJSONFloat(b, float64(sum)/float64(n))
	}
	if s := m.spans[sum]; s != 0 {
		return append(b, m.arena[s>>5:s>>5+s&31]...)
	}
	start := len(m.arena)
	m.arena = appendJSONFloat(m.arena, float64(sum)/float64(n))
	if l := len(m.arena) - start; l < 32 {
		m.spans[sum] = uint32(start)<<5 | uint32(l)
	}
	return append(b, m.arena[start:]...)
}
