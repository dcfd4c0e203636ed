package extract

import (
	"fmt"
	"io"
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
	// Exhaustive disables the distance-pruned candidate search and tests
	// every box against the link line, as the paper's pseudocode does
	// literally. Results are identical; the pruned search just skips the
	// line-intersection test for boxes that cannot beat the current best.
	// Kept for the ablation benchmark.
	Exhaustive bool
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
// bases of the link's two arrows, collects the routers and labels whose
// boxes intersect that line, and, for each of the two link ends, sorts the
// candidates by increasing distance to the end. The closest router becomes
// the end's router; the closest label is attributed and removed from the
// label set, guaranteeing each label is assigned at most once.
func Attribute(res *ScanResult, id wmap.MapID, at time.Time, opt Options) (*wmap.Map, error) {
	m := &wmap.Map{ID: id, Time: at}
	for i, r := range res.Routers {
		if r.Name == "" {
			return nil, attrErrorf(-1, "router %d has no name", i)
		}
		m.Nodes = append(m.Nodes, wmap.Node{Name: r.Name, Kind: wmap.KindOfName(r.Name)})
	}

	// Labels are consumed as they are attributed (Algorithm 2, line 9).
	used := make([]bool, len(res.Labels))

	// Spatial indexes accelerate the closest-intersecting-box queries of
	// the default mode; see boxIndex for the exactness argument.
	var routerIdx, labelIdx *boxIndex
	if !opt.Exhaustive {
		routerBoxes := make([]geom.Rect, len(res.Routers))
		for i := range res.Routers {
			routerBoxes[i] = res.Routers[i].Box
		}
		labelBoxes := make([]geom.Rect, len(res.Labels))
		for i := range res.Labels {
			labelBoxes[i] = res.Labels[i].Box
		}
		const cell = 64
		routerIdx = newBoxIndex(routerBoxes, cell)
		labelIdx = newBoxIndex(labelBoxes, cell)
	}

	attached := make(map[string]bool, len(res.Routers))
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

		// Candidate routers and labels: boxes intersecting the link's line.
		// The exhaustive mode materializes the full candidate lists first
		// (the paper's literal pseudocode); the default mode prunes by
		// distance to the end before paying for the intersection test.
		var routerCand, labelCand []int
		if opt.Exhaustive {
			for ri := range res.Routers {
				if res.Routers[ri].Box.IntersectsLine(line) {
					routerCand = append(routerCand, ri)
				}
			}
			for ci := range res.Labels {
				if !used[ci] && res.Labels[ci].Box.IntersectsLine(line) {
					labelCand = append(labelCand, ci)
				}
			}
		}

		link := wmap.Link{LoadAB: raw.Loads[0], LoadBA: raw.Loads[1]}
		var endNames [2]string
		for e, end := range [2]geom.Point{baseA, baseB} {
			var ri, ci int
			if opt.Exhaustive {
				ri = closestRouter(res.Routers, routerCand, end)
			} else {
				ri = routerIdx.closestIntersecting(line, end, nil)
			}
			if ri < 0 {
				return nil, attrErrorf(li, "no router box intersects the link line near end %d", e)
			}
			endNames[e] = res.Routers[ri].Name

			if opt.Exhaustive {
				ci = closestLabel(res.Labels, used, labelCand, end)
			} else {
				ci = labelIdx.closestIntersecting(line, end, used)
			}
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
		if endNames[0] == endNames[1] {
			return nil, attrErrorf(li, "both ends attribute to router %q", endNames[0])
		}
		link.A, link.B = endNames[0], endNames[1]
		attached[link.A] = true
		attached[link.B] = true
		m.Links = append(m.Links, link)
	}

	if opt.RequireConnected {
		for _, r := range res.Routers {
			if !attached[r.Name] {
				return nil, attrErrorf(-1, "router %q is not attributed any link", r.Name)
			}
		}
	}
	return m, nil
}

// closestRouter returns the candidate index whose box is closest to the
// end point, with a deterministic coordinate tie-break.
func closestRouter(routers []RawRouter, cand []int, end geom.Point) int {
	best := -1
	for _, ri := range cand {
		if best < 0 || closerBox(end, routers[ri].Box, routers[best].Box) {
			best = ri
		}
	}
	return best
}

// closestLabel returns the unused candidate label closest to the end point.
func closestLabel(labels []RawLabel, used []bool, cand []int, end geom.Point) int {
	best := -1
	for _, ci := range cand {
		if used[ci] {
			continue
		}
		if best < 0 || closerBox(end, labels[ci].Box, labels[best].Box) {
			best = ci
		}
	}
	return best
}

// closerBox orders boxes by distance to pt, breaking ties on coordinates so
// attribution is deterministic on degenerate layouts.
func closerBox(pt geom.Point, a, b geom.Rect) bool {
	da, db := a.DistToPoint(pt), b.DistToPoint(pt)
	if da != db {
		return da < db
	}
	if a.Min.X != b.Min.X {
		return a.Min.X < b.Min.X
	}
	return a.Min.Y < b.Min.Y
}

// CountDuplicateAssignments runs the label-attribution step of Algorithm 2
// WITHOUT the consumption rule (line 9 of the paper's pseudocode) and
// returns how many label boxes end up assigned to more than one link end.
// It quantifies the ablation DESIGN.md calls out: without consumption,
// parallel links whose labels share text (and sit symmetrically) can grab
// the same physical label box, which the consuming algorithm forbids by
// construction.
//
//lint:ignore wmlint/deadexport the label-consumption ablation entry point (DESIGN.md §5)
func CountDuplicateAssignments(res *ScanResult) int {
	assigned := make([]int, len(res.Labels))
	for _, raw := range res.Links {
		baseA, okA := raw.ArrowA.ArrowBase()
		baseB, okB := raw.ArrowB.ArrowBase()
		if !okA || !okB {
			continue
		}
		line := geom.LineThrough(baseA, baseB)
		if line.Degenerate() {
			continue
		}
		var cand []int
		for ci := range res.Labels {
			if res.Labels[ci].Box.IntersectsLine(line) {
				cand = append(cand, ci)
			}
		}
		noUsed := make([]bool, len(res.Labels)) // consumption disabled
		for _, end := range [2]geom.Point{baseA, baseB} {
			if ci := closestLabel(res.Labels, noUsed, cand, end); ci >= 0 {
				assigned[ci]++
			}
		}
	}
	dups := 0
	for _, n := range assigned {
		if n > 1 {
			dups++
		}
	}
	return dups
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
