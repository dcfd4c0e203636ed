package extract

import (
	"time"

	"ovhweather/internal/geom"
	"ovhweather/internal/wmap"
)

// referenceAttribute is Algorithm 2 as the paper's pseudocode states it,
// the reference the grid-indexed Attribute is held to: for every link it
// materializes the routers and unused labels whose boxes intersect the
// link's line, then takes the closest of each per end under closerBox,
// scanning the candidates in index order. Errors are Attribute's, text for
// text.
func referenceAttribute(res *ScanResult, id wmap.MapID, at time.Time, opt Options) (*wmap.Map, error) {
	m := &wmap.Map{ID: id, Time: at}
	for i, r := range res.Routers {
		if r.Name == "" {
			return nil, attrErrorf(-1, "router %d has no name", i)
		}
		m.Nodes = append(m.Nodes, wmap.Node{Name: r.Name, Kind: wmap.KindOfName(r.Name)})
	}

	// Labels are consumed as they are attributed (Algorithm 2, line 9).
	used := make([]bool, len(res.Labels))
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

		var routerCand, labelCand []int
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

		link := wmap.Link{LoadAB: raw.Loads[0], LoadBA: raw.Loads[1]}
		var endNames [2]string
		for e, end := range [2]geom.Point{baseA, baseB} {
			ri := closestRouter(res.Routers, routerCand, end)
			if ri < 0 {
				return nil, attrErrorf(li, "no router box intersects the link line near end %d", e)
			}
			endNames[e] = res.Routers[ri].Name

			ci := closestLabel(res.Labels, used, labelCand, end)
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

// countDuplicateAssignments runs the label-attribution step of Algorithm 2
// WITHOUT the consumption rule (line 9 of the paper's pseudocode) and
// returns how many label boxes end up assigned to more than one link end.
// It quantifies the ablation DESIGN.md calls out: without consumption,
// parallel links whose labels share text (and sit symmetrically) can grab
// the same physical label box, which the consuming algorithm forbids by
// construction.
func countDuplicateAssignments(res *ScanResult) int {
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
