package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ovhweather/internal/wmap"
)

// Per-site growth: the paper's Figure 4 discussion closes with "Future work
// could use router names to identify the spread of these variations in the
// network, e.g., to find whether some parts of the network are growing
// faster than others." Router names carry their site code (fra-fr5-pb6-nc5
// is in Frankfurt), so grouping by prefix answers exactly that.

// SiteOf extracts the site code from an OVH-style router name — the token
// before the first dash ("fra" from "fra-fr5-pb6-nc5"). Names without a
// dash are their own site.
func SiteOf(router string) string {
	if i := strings.IndexByte(router, '-'); i > 0 {
		return router[:i]
	}
	return router
}

// SiteStats is one site's infrastructure at one instant.
type SiteStats struct {
	Site    string
	Routers int
	Links   int // link endpoints anchored at the site's routers
}

// SiteGrowthView compares each site between the first and last snapshot of
// a stream.
type SiteGrowthView struct {
	First, Last map[string]SiteStats
	// Sites in descending order of router growth, ties broken by link
	// growth then name.
	Ranked []SiteGrowth
}

// SiteGrowth is the per-site delta.
type SiteGrowth struct {
	Site          string
	RouterDelta   int
	LinkDelta     int
	RoutersBefore int
	RoutersAfter  int
}

// SiteGrowthStudy consumes a stream and reports per-site growth between its
// first and last snapshots. It keeps the first snapshot's site stats and
// the last snapshot's topology, never a streamed map.
func SiteGrowthStudy(src Stream) (*SiteGrowthView, error) {
	var first map[string]SiteStats
	var last *wmap.Topology
	err := src(func(m *wmap.Map) error {
		if first == nil {
			first = siteStats(m)
		}
		if !last.Matches(m) {
			last = m.Topology()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if first == nil {
		return nil, fmt.Errorf("analysis: empty stream")
	}
	view := &SiteGrowthView{First: first, Last: siteStats(&wmap.Map{Nodes: last.Nodes(), Links: last.Links()})}
	names := make(map[string]struct{})
	for s := range view.First {
		names[s] = struct{}{}
	}
	for s := range view.Last {
		names[s] = struct{}{}
	}
	for s := range names {
		f, l := view.First[s], view.Last[s]
		view.Ranked = append(view.Ranked, SiteGrowth{
			Site:          s,
			RouterDelta:   l.Routers - f.Routers,
			LinkDelta:     l.Links - f.Links,
			RoutersBefore: f.Routers,
			RoutersAfter:  l.Routers,
		})
	}
	sort.Slice(view.Ranked, func(i, j int) bool {
		a, b := view.Ranked[i], view.Ranked[j]
		if a.RouterDelta != b.RouterDelta {
			return a.RouterDelta > b.RouterDelta
		}
		if a.LinkDelta != b.LinkDelta {
			return a.LinkDelta > b.LinkDelta
		}
		return a.Site < b.Site
	})
	return view, nil
}

func siteStats(m *wmap.Map) map[string]SiteStats {
	out := make(map[string]SiteStats)
	for _, r := range m.Routers() {
		s := out[SiteOf(r.Name)]
		s.Site = SiteOf(r.Name)
		s.Routers++
		out[s.Site] = s
	}
	for _, l := range m.Links {
		for _, end := range []string{l.A, l.B} {
			if wmap.KindOfName(end) != wmap.Router {
				continue
			}
			site := SiteOf(end)
			s := out[site]
			s.Site = site
			s.Links++
			out[site] = s
		}
	}
	return out
}

// WriteSiteGrowth renders the top growing and shrinking sites.
func WriteSiteGrowth(w io.Writer, v *SiteGrowthView, topN int) {
	fmt.Fprintf(w, "Per-site growth (%d sites)\n", len(v.Ranked))
	shown := 0
	for _, g := range v.Ranked {
		if g.RouterDelta == 0 && g.LinkDelta == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-4s routers %d -> %d (%+d), link endpoints %+d\n",
			g.Site, g.RoutersBefore, g.RoutersAfter, g.RouterDelta, g.LinkDelta)
		shown++
		if topN > 0 && shown >= topN {
			break
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "  no site-level changes")
	}
}
