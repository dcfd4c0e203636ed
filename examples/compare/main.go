// Compare: the cross-provider study the paper's Discussion proposes —
// running the same weather-map pipeline against a second, smaller cloud
// provider (Scaleway also publishes an SVG backbone map) and comparing the
// two networks side by side.
//
// Both providers go through the identical code path: simulate, render to
// SVG, extract with Algorithms 1 and 2, analyze. The comparison surfaces
// exactly the differences the paper anticipates: the smaller network has
// fewer routers and links, less path diversity, and runs its links hotter
// (less excess capacity).
//
//	go run ./examples/compare
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// provider bundles one provider's simulation for the comparison.
type provider struct {
	name string
	sc   netsim.Scenario
	sim  *netsim.Simulator
}

func main() {
	log.SetFlags(0)

	providers := []*provider{
		{name: "OVH-like", sc: netsim.DefaultScenario()},
		{name: "Scaleway-like", sc: netsim.ScalewayLikeScenario()},
	}
	for _, p := range providers {
		sim, err := netsim.New(p.sc)
		if err != nil {
			log.Fatal(err)
		}
		p.sim = sim
	}

	analysis.Banner(os.Stdout, "Cross-provider comparison (paper §6): Europe backbone maps")

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tOVH-like\tScaleway-like")
	row := func(name string, vals ...string) {
		fmt.Fprintf(tw, "%s", name)
		for _, v := range vals {
			fmt.Fprintf(tw, "\t%s", v)
		}
		fmt.Fprintln(tw)
	}

	type result struct {
		routers, internal, external int
		deg1, deg20                 float64
		p75, over60                 float64
		meanInt, meanExt            float64
		parallels                   float64
		svgBytes                    int
	}
	results := make([]result, len(providers))
	for i, p := range providers {
		m, err := p.sim.MapAt(wmap.Europe, p.sc.End)
		if err != nil {
			log.Fatal(err)
		}

		// The full pipeline: render the provider's map and extract it back,
		// proving the tooling is provider-agnostic.
		var buf bytes.Buffer
		if err := render.Render(&buf, m, render.Options{}); err != nil {
			log.Fatal(err)
		}
		got, err := extract.ExtractSVG(bytes.NewReader(buf.Bytes()), m.ID, m.Time, extract.DefaultOptions())
		if err != nil {
			log.Fatalf("%s: extraction failed: %v", p.name, err)
		}
		if len(got.Links) != len(m.Links) {
			log.Fatalf("%s: round trip lost links", p.name)
		}

		deg, err := analysis.DegreeCCDF(m)
		if err != nil {
			log.Fatal(err)
		}
		from := p.sc.End.AddDate(0, -1, 0)
		loads, err := analysis.LoadCDF(streamOf(p, from, from.AddDate(0, 0, 3), 3*time.Hour))
		if err != nil {
			log.Fatal(err)
		}
		results[i] = result{
			routers:   len(m.Routers()),
			internal:  len(m.InternalLinks()),
			external:  len(m.ExternalLinks()),
			deg1:      deg.FracDegree1,
			deg20:     deg.FracOver20,
			p75:       loads.P75All,
			over60:    loads.FracOver60,
			meanInt:   loads.MeanInternal,
			meanExt:   loads.MeanExternal,
			parallels: m.Topology().MeanParallelism(),
			svgBytes:  buf.Len(),
		}
	}

	f := func(format string, vals ...any) string { return fmt.Sprintf(format, vals...) }
	row("routers", f("%d", results[0].routers), f("%d", results[1].routers))
	row("internal links", f("%d", results[0].internal), f("%d", results[1].internal))
	row("external links", f("%d", results[0].external), f("%d", results[1].external))
	row("degree-1 routers", f("%.0f%%", 100*results[0].deg1), f("%.0f%%", 100*results[1].deg1))
	row("degree>20 routers", f("%.0f%%", 100*results[0].deg20), f("%.0f%%", 100*results[1].deg20))
	row("parallels per group", f("%.2f", results[0].parallels), f("%.2f", results[1].parallels))
	row("load p75", f("%.0f%%", results[0].p75), f("%.0f%%", results[1].p75))
	row("loads above 60%", f("%.2f%%", 100*results[0].over60), f("%.2f%%", 100*results[1].over60))
	row("mean internal load", f("%.1f%%", results[0].meanInt), f("%.1f%%", results[1].meanInt))
	row("mean external load", f("%.1f%%", results[0].meanExt), f("%.1f%%", results[1].meanExt))
	row("SVG snapshot size", f("%d KiB", results[0].svgBytes/1024), f("%d KiB", results[1].svgBytes/1024))
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("reading: the smaller provider publishes the same map format (the")
	fmt.Println("pipeline runs unchanged), but has a fraction of the infrastructure,")
	fmt.Println("less path diversity, and noticeably hotter links — the differences")
	fmt.Println("the paper expects such a comparison to reveal.")
}

func streamOf(p *provider, from, to time.Time, step time.Duration) analysis.Stream {
	return func(yield func(*wmap.Map) error) error {
		for at := from; !at.After(to); at = at.Add(step) {
			m, err := p.sim.MapAt(wmap.Europe, at)
			if err != nil {
				return err
			}
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}
}
