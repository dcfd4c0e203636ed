// Quickstart: the whole pipeline in memory, on a map small enough to read.
//
// It builds a weather map by hand (two OVH routers, one peering, parallel
// links), renders it to SVG the way the OVH website would, runs the paper's
// extraction pipeline on the image — Algorithm 1 (flat SVG scan) and
// Algorithm 2 (geometric attribution) — and prints the recovered topology
// and its processed-file YAML.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"ovhweather/internal/extract"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)

	// A hand-built snapshot: the Figure 1 neighbourhood of the paper.
	m := &wmap.Map{
		ID: wmap.Europe,
		Nodes: []wmap.Node{
			{Name: "fra-fr5-pb6-nc5", Kind: wmap.Router},
			{Name: "fra-fr5-sbb1-nc6", Kind: wmap.Router},
			{Name: "ARELION", Kind: wmap.Peering},
			{Name: "VODAFONE", Kind: wmap.Peering},
		},
		Links: []wmap.Link{
			{A: "fra-fr5-pb6-nc5", B: "ARELION", LabelA: "#1", LabelB: "#1", LoadAB: 42, LoadBA: 9},
			{A: "fra-fr5-pb6-nc5", B: "fra-fr5-sbb1-nc6", LabelA: "#1", LabelB: "#1", LoadAB: 30, LoadBA: 28},
			{A: "fra-fr5-pb6-nc5", B: "fra-fr5-sbb1-nc6", LabelA: "#2", LabelB: "#2", LoadAB: 31, LoadBA: 29},
			// Parallel links to VODAFONE with non-unique labels, as the
			// paper observes on the real map.
			{A: "fra-fr5-pb6-nc5", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 12, LoadBA: 5},
			{A: "fra-fr5-pb6-nc5", B: "VODAFONE", LabelA: "#1", LabelB: "#1", LoadAB: 14, LoadBA: 6},
		},
	}

	// Render the snapshot as the flat SVG the weather map publishes.
	var svg bytes.Buffer
	if err := render.Render(&svg, m, render.Options{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered SVG: %d bytes\n\n", svg.Len())

	// Algorithm 1: scan the flat element sequence.
	res, err := extract.Scan(bytes.NewReader(svg.Bytes()), extract.ScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1 extracted %d routers, %d links, %d labels\n\n",
		len(res.Routers), len(res.Links), len(res.Labels))

	// Algorithm 2: geometric attribution.
	got, err := extract.Attribute(res, m.ID, m.Time, extract.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Algorithm 2 recovered the topology:")
	for _, l := range got.Links {
		kind := "external"
		if l.Internal() {
			kind = "internal"
		}
		fmt.Printf("  %-18s %-3s <-> %-3s %-18s egress %-5s ingress %-5s (%s)\n",
			l.A, l.LabelA, l.LabelB, l.B, l.LoadAB, l.LoadBA, kind)
	}

	if err := got.Validate(); err != nil {
		log.Fatalf("sanity checks failed: %v", err)
	}
	fmt.Println("\nsanity checks passed")

	out, err := extract.MarshalYAML(got)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprocessed YAML document:\n%s", out)
}
