// Collector: the full collection pipeline on a virtual clock — a live
// weather-map website, a five-minute crawler with the paper's outage plan,
// batch processing into YAML, and the collection-quality analysis of
// Figures 2 and 3.
//
// Two simulated weeks are collected into a temporary directory in a few
// seconds of wall-clock time, including a deliberate outage, then every SVG
// is processed through Algorithms 1 and 2 and the dataset is summarized.
//
//	go run ./examples/collector
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)

	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		log.Fatal(err)
	}

	// The weather-map website, exactly as wmserve runs it.
	site := collect.NewServer(sim, wmap.AllMaps())
	hs := httptest.NewServer(http.Handler(site))
	defer hs.Close()
	fmt.Printf("weather map site: %s (virtual clock)\n", hs.URL)

	dir, err := os.MkdirTemp("", "ovhweather-collect-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := dataset.Open(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Collect four virtual days at five-minute resolution, with a scripted
	// six-hour outage in the middle — the kind of interruption Figure 2
	// shows. (The full two-year campaign is cmd/wmgen territory.)
	from := sc.Start
	to := from.AddDate(0, 0, 4)
	outage := collect.Outage{
		From: from.AddDate(0, 0, 2),
		To:   from.AddDate(0, 0, 2).Add(6 * time.Hour),
	}
	col := &collect.Collector{
		BaseURL: hs.URL,
		Store:   store,
		Plan:    collect.Plan{Outages: []collect.Outage{outage}, SkipRate: 0.001},
		Maps:    wmap.AllMaps(),
		Retries: 2,
	}
	fmt.Printf("collecting %s .. %s every 5 virtual minutes...\n",
		from.Format("2006-01-02"), to.Format("2006-01-02"))
	stats, err := col.Run(context.Background(), from, to, 5*time.Minute, site.SetTime)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d snapshots, %d skipped (outage + noise), %d failed\n\n",
		stats.Fetched, stats.Skipped, stats.Failed)

	// Process the Asia Pacific SVGs into YAML with the paper's sanity
	// checks (the smallest map keeps the example quick; wmparse handles
	// the rest).
	rep, err := store.ProcessMap(wmap.AsiaPacific, extract.DefaultOptions(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("processing:", rep)

	// Figures 2 and 3 on the collected data.
	fmt.Println()
	for _, id := range wmap.AllMaps() {
		cov, err := store.CoverageOf(id, dataset.ExtSVG)
		if err != nil {
			log.Fatal(err)
		}
		analysis.WriteCoverage(os.Stdout, cov)
		dist, err := store.IntervalsOf(id, dataset.ExtSVG)
		if err != nil {
			log.Fatal(err)
		}
		analysis.WriteIntervals(os.Stdout, dist)
	}

	// Table 2 for this mini-campaign.
	fmt.Println()
	sum, err := store.Summarize()
	if err != nil {
		log.Fatal(err)
	}
	if err := analysis.WriteTable2(os.Stdout, sum); err != nil {
		log.Fatal(err)
	}
}
