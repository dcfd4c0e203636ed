// Evolution: the two-year infrastructure study of the paper's Section 5,
// run against the synthetic backbone.
//
// It samples the Europe map weekly across the full July 2020 – September
// 2022 range, reproduces Figure 4a (router count trajectory with
// make-before-break and maintenance events), Figure 4b (stepwise internal
// vs gradual external link growth), and Figure 4c (the degree CCDF), and
// prints the detected change events with their dates.
//
//	go run ./examples/evolution
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/netsim"
	"ovhweather/internal/status"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		log.Fatal(err)
	}

	stream := func(yield func(*wmap.Map) error) error {
		for at := sc.Start; !at.After(sc.End); at = at.Add(7 * 24 * time.Hour) {
			m, err := sim.MapAt(wmap.Europe, at)
			if err != nil {
				return err
			}
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	}

	infra, err := analysis.Infrastructure(stream)
	if err != nil {
		log.Fatal(err)
	}

	analysis.Banner(os.Stdout, "Figure 4a — OVH router events on the Europe map")
	for _, e := range infra.RouterEvents(2) {
		verb := "added"
		n := int(e.Delta)
		if n < 0 {
			verb = "removed"
			n = -n
		}
		fmt.Printf("  %s: %d routers %s\n", e.T.Format("2006-01-02"), n, verb)
	}
	first, _ := infra.Routers.First()
	last, _ := infra.Routers.Last()
	fmt.Printf("  net: %.0f -> %.0f routers over the observation period\n", first.V, last.V)

	analysis.Banner(os.Stdout, "Figure 4b — link growth")
	fmt.Println("  internal link steps (>= 6 links at once):")
	for _, e := range infra.InternalSteps(6) {
		fmt.Printf("    %s: %+d links\n", e.T.Format("2006-01-02"), int(e.Delta))
	}
	fi, _ := infra.Internal.First()
	li, _ := infra.Internal.Last()
	fe, _ := infra.External.First()
	le, _ := infra.External.Last()
	fmt.Printf("  internal: %.0f -> %.0f (stepwise), external: %.0f -> %.0f (gradual)\n",
		fi.V, li.V, fe.V, le.V)
	extSteps := infra.External.Changes(6)
	fmt.Printf("  external changes of >= 6 links at once: %d (growth is spread out)\n", len(extSteps))

	analysis.Banner(os.Stdout, "Figure 4c — router degree CCDF at the end of the period")
	final, err := sim.MapAt(wmap.Europe, sc.End)
	if err != nil {
		log.Fatal(err)
	}
	deg, err := analysis.DegreeCCDF(final)
	if err != nil {
		log.Fatal(err)
	}
	analysis.WriteDegreeCCDF(os.Stdout, deg)
	fmt.Printf("  mean parallel links per group: %.2f (paper: 6.58)\n", final.Topology().MeanParallelism())

	// The Discussion-section augmentation: correlate the router changes
	// with the provider's published status feed to separate planned works
	// from failures.
	analysis.Banner(os.Stdout, "Status-feed augmentation (paper §6)")
	feed := status.FromScenario(sc)
	corr := analysis.CorrelateMaintenance(infra, feed, 2, 8*24*time.Hour)
	analysis.WriteMaintenance(os.Stdout, corr)

	// "Future work could use router names to identify the spread of these
	// variations": which sites grew, and which routers were behind the
	// October 2020 decommission.
	analysis.Banner(os.Stdout, "Per-site growth and named churn (paper §5 future work)")
	growth, err := analysis.SiteGrowthStudy(stream)
	if err != nil {
		log.Fatal(err)
	}
	analysis.WriteSiteGrowth(os.Stdout, growth, 8)
	churnFrom := time.Date(2020, time.September, 28, 12, 0, 0, 0, time.UTC)
	churnTo := time.Date(2020, time.October, 6, 12, 0, 0, 0, time.UTC)
	churn, err := analysis.ChurnStudy(func(yield func(*wmap.Map) error) error {
		for at := churnFrom; !at.After(churnTo); at = at.Add(24 * time.Hour) {
			m, err := sim.MapAt(wmap.Europe, at)
			if err != nil {
				return err
			}
			if err := yield(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	analysis.WriteChurn(os.Stdout, churn)
}
