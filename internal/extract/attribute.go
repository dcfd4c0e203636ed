package extract

import (
	"fmt"
	"io"
	"slices"
	"time"

	"ovhweather/internal/geom"
	"ovhweather/internal/wmap"
)

// Options tunes Algorithm 2 and the sanity checks around it.
type Options struct {
	// LabelThreshold is the maximum distance, in pixels, between a link end
	// and its attributed label box; the paper asserts the distance "is below
	// a defined threshold (i.e., a few pixels)" scaled to arrow geometry.
	LabelThreshold float64
	// RequireLabels fails attribution when a link end has no label within
	// the threshold. Disable to tolerate label-less maps.
	RequireLabels bool
	// RequireConnected enforces the paper's final check that each router is
	// attributed at least one link.
	RequireConnected bool
	// VerifyColors cross-checks every load percentage against its arrow's
	// fill color during the scan; see ScanOptions.
	VerifyColors bool
}

// DefaultOptions mirrors the paper's processing configuration.
func DefaultOptions() Options {
	return Options{
		LabelThreshold:   40,
		RequireLabels:    true,
		RequireConnected: true,
	}
}

// AttributeError describes a failed geometric attribution.
type AttributeError struct {
	LinkIndex int
	Reason    string
}

func (e *AttributeError) Error() string {
	return fmt.Sprintf("extract: attribute: link %d: %s", e.LinkIndex, e.Reason)
}

func attrErrorf(link int, format string, args ...any) error {
	return &AttributeError{LinkIndex: link, Reason: fmt.Sprintf(format, args...)}
}

// Attribute runs Algorithm 2: it connects every scanned link to its two
// routers and attributes the two link-end labels, using only shapes and
// placement in the 2D image plane.
//
// For each link it computes the straight line through the middle of the
// bases of the link's two arrows, and, for each of the two link ends, takes
// the router box and the label box closest to the end among those the line
// intersects. The router becomes the end's router; the label is attributed
// and removed from the label set, guaranteeing each label is assigned at
// most once.
func Attribute(res *ScanResult, id wmap.MapID, at time.Time, opt Options) (*wmap.Map, error) {
	var a attributor
	return a.attribute(res, id, at, opt)
}

// indexCell is the smallest grid cell, in pixels, of the router and label
// indexes; gridCell grows it to bound each index's size.
const indexCell = 64

// attributor is Algorithm 2's scratch: the router and label boxes, their
// grid indexes, and the consumed-label and attached-router marks. An
// AttributionCache keeps one, so each miss reuses the previous miss's
// arrays.
type attributor struct {
	routerBoxes, labelBoxes []geom.Rect
	routerIdx, labelIdx     boxIndex
	used, attached          []bool
}

func (a *attributor) attribute(res *ScanResult, id wmap.MapID, at time.Time, opt Options) (*wmap.Map, error) {
	m := &wmap.Map{ID: id, Time: at, Nodes: make([]wmap.Node, 0, len(res.Routers))}
	for i, r := range res.Routers {
		if r.Name == "" {
			return nil, attrErrorf(-1, "router %d has no name", i)
		}
		m.Nodes = append(m.Nodes, wmap.Node{Name: r.Name, Kind: wmap.KindOfName(r.Name)})
	}

	// Spatial indexes answer the closest-intersecting-box queries; see
	// boxIndex for the exactness argument.
	a.routerBoxes = slices.Grow(a.routerBoxes[:0], len(res.Routers))
	for i := range res.Routers {
		a.routerBoxes = append(a.routerBoxes, res.Routers[i].Box)
	}
	a.labelBoxes = slices.Grow(a.labelBoxes[:0], len(res.Labels))
	for i := range res.Labels {
		a.labelBoxes = append(a.labelBoxes, res.Labels[i].Box)
	}
	a.routerIdx.build(a.routerBoxes, gridCell(a.routerBoxes, indexCell))
	a.labelIdx.build(a.labelBoxes, gridCell(a.labelBoxes, indexCell))

	// Labels are consumed as they are attributed (Algorithm 2, line 9).
	used := marks(&a.used, len(res.Labels))
	attached := marks(&a.attached, len(res.Routers))

	m.Links = make([]wmap.Link, 0, len(res.Links))
	for li, raw := range res.Links {
		baseA, okA := raw.ArrowA.ArrowBase()
		baseB, okB := raw.ArrowB.ArrowBase()
		if !okA || !okB {
			return nil, attrErrorf(li, "cannot locate arrow bases")
		}
		line := geom.LineThrough(baseA, baseB)
		if line.Degenerate() {
			return nil, attrErrorf(li, "arrow bases coincide")
		}

		link := wmap.Link{LoadAB: raw.Loads[0], LoadBA: raw.Loads[1]}
		var ends [2]int
		for e, end := range [2]geom.Point{baseA, baseB} {
			ri := a.routerIdx.closestIntersecting(line, end, nil)
			if ri < 0 {
				return nil, attrErrorf(li, "no router box intersects the link line near end %d", e)
			}
			ends[e] = ri

			ci := a.labelIdx.closestIntersecting(line, end, used)
			switch {
			case ci < 0 && opt.RequireLabels:
				return nil, attrErrorf(li, "no label box intersects the link line near end %d", e)
			case ci >= 0:
				if d := res.Labels[ci].Box.DistToPoint(end); d > opt.LabelThreshold {
					if opt.RequireLabels {
						return nil, attrErrorf(li, "closest label %q is %.1fpx from end %d, beyond threshold %.1f",
							res.Labels[ci].Text, d, e, opt.LabelThreshold)
					}
				} else {
					if e == 0 {
						link.LabelA = res.Labels[ci].Text
					} else {
						link.LabelB = res.Labels[ci].Text
					}
					used[ci] = true
				}
			}
		}
		link.A, link.B = res.Routers[ends[0]].Name, res.Routers[ends[1]].Name
		if link.A == link.B {
			return nil, attrErrorf(li, "both ends attribute to router %q", link.A)
		}
		attached[ends[0]] = true
		attached[ends[1]] = true
		m.Links = append(m.Links, link)
	}

	if opt.RequireConnected {
		for i, r := range res.Routers {
			if !attached[i] && !nameAttached(res.Routers, attached, r.Name) {
				return nil, attrErrorf(-1, "router %q is not attributed any link", r.Name)
			}
		}
	}
	return m, nil
}

// marks returns *buf resized to n and cleared.
func marks(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// nameAttached reports whether an attached router is named name. The check
// for connectivity is by name: a router sharing its name with an attached
// one counts as attached.
func nameAttached(routers []RawRouter, attached []bool, name string) bool {
	for i, r := range routers {
		if attached[i] && r.Name == name {
			return true
		}
	}
	return false
}

// ExtractSVG runs the full pipeline — Scan then Attribute — on one SVG
// document.
func ExtractSVG(r io.Reader, id wmap.MapID, at time.Time, opt Options) (*wmap.Map, error) {
	res, err := Scan(r, ScanOptions{VerifyColors: opt.VerifyColors})
	if err != nil {
		return nil, err
	}
	if len(res.Routers) == 0 && len(res.Links) == 0 {
		return nil, ErrNotWeathermap
	}
	return Attribute(res, id, at, opt)
}
