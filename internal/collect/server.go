// Package collect reproduces the data-collection side of the paper: an HTTP
// weather-map website serving the current SVG of each backbone map (with the
// real site's one-hour retention of the day's past snapshots), and a
// collector that polls it every five minutes and archives the snapshots into
// a dataset store.
//
// Real time is replaced by a virtual clock so two simulated years compress
// into seconds, and a deterministic outage plan reproduces the collection
// discontinuities of Figure 2: the World, North America and Asia Pacific
// maps were not collected between September 2020 and October 2021, short
// gaps occur at a low rate, and an operational fix in May 2022 reduces them
// further.
package collect

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ovhweather/internal/render"
	"ovhweather/internal/status"
	"ovhweather/internal/wmap"
)

// Source provides map snapshots at a given time; netsim.Simulator satisfies
// it.
type Source interface {
	MapAt(id wmap.MapID, at time.Time) (*wmap.Map, error)
}

// Server is the weather-map website. Its clock is advanced explicitly with
// SetTime (every five minutes in a realistic deployment); each advance
// refreshes the current SVG of every map and rolls the hourly archive.
//
// Routes:
//
//	GET /maps                  — list of map ids, one per line
//	GET /map/{id}.svg          — the current snapshot of a map
//	GET /map/{id}/archive/{HH} — the day's retained snapshot at hour HH
type Server struct {
	source Source
	maps   []wmap.MapID
	cache  *render.SceneCache
	status *status.Feed // optional network-status feed

	mu      sync.RWMutex
	now     time.Time
	current map[wmap.MapID][]byte
	etags   map[wmap.MapID]string
	archive map[wmap.MapID]map[int][]byte // hour of day -> snapshot
}

// NewServer builds a server over the given source and maps.
func NewServer(source Source, maps []wmap.MapID) *Server {
	return &Server{
		source:  source,
		maps:    append([]wmap.MapID(nil), maps...),
		cache:   render.NewSceneCache(render.Options{}),
		current: make(map[wmap.MapID][]byte),
		etags:   make(map[wmap.MapID]string),
		archive: make(map[wmap.MapID]map[int][]byte),
	}
}

// SetStatusFeed attaches the provider's network-status feed, served at
// /status.json — the companion site the paper's Discussion proposes for
// dataset augmentation. Pass nil to detach.
func (s *Server) SetStatusFeed(feed *status.Feed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status = feed
}

// SetTime advances the site's clock to t, regenerating every map's current
// image. On the hour, the previous current image is retained in the
// archive; the archive keeps only the running day, as the real site does.
func (s *Server) SetTime(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prevDay := s.now.YearDay()
	for _, id := range s.maps {
		m, err := s.source.MapAt(id, t)
		if err != nil {
			return fmt.Errorf("collect: refreshing %s: %w", id, err)
		}
		var buf strings.Builder
		if err := s.cache.WriteSVGCached(&buf, m); err != nil {
			return fmt.Errorf("collect: rendering %s: %w", id, err)
		}
		data := []byte(buf.String())
		s.current[id] = data
		s.etags[id] = etagOf(data)
		if t.Minute() == 0 {
			if s.archive[id] == nil || t.YearDay() != prevDay {
				s.archive[id] = make(map[int][]byte)
			}
			s.archive[id][t.Hour()] = data
		}
	}
	s.now = t
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	switch {
	case path == "maps":
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, id := range s.maps {
			fmt.Fprintln(w, id)
		}
	case path == "status.json":
		s.mu.RLock()
		feed := s.status
		s.mu.RUnlock()
		if feed == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := feed.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case strings.HasPrefix(path, "map/"):
		s.serveMap(w, r, strings.TrimPrefix(path, "map/"))
	default:
		http.NotFound(w, r)
	}
}

// etagOf derives a strong validator from the document bytes.
func etagOf(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%q", strconv.FormatUint(h.Sum64(), 16))
}

func (s *Server) serveMap(w http.ResponseWriter, r *http.Request, rest string) {
	if id, ok := strings.CutSuffix(rest, ".svg"); ok {
		s.mu.RLock()
		data, found := s.current[wmap.MapID(id)]
		etag := s.etags[wmap.MapID(id)]
		s.mu.RUnlock()
		if !found {
			http.NotFound(w, r)
			return
		}
		// Conditional requests spare the crawler the ~500 KiB transfer when
		// the site has not refreshed between two polls.
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write(data)
		return
	}
	parts := strings.Split(rest, "/")
	if len(parts) == 3 && parts[1] == "archive" {
		hour, err := strconv.Atoi(parts[2])
		if err != nil || hour < 0 || hour > 23 {
			http.Error(w, "bad hour", http.StatusBadRequest)
			return
		}
		s.mu.RLock()
		data, found := s.archive[wmap.MapID(parts[0])][hour]
		s.mu.RUnlock()
		if !found {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write(data)
		return
	}
	http.NotFound(w, r)
}
