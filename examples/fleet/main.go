// Command fleet demonstrates the multi-site orchestrator: CrawlSites runs
// one independent SB-CLASSIFIER crawl per simulated website over a worker
// pool and aggregates the outcomes into a fleet summary. Per-site results
// are byte-identical whatever the worker count (each site's seed derives
// deterministically from the shared Config.Seed and the site's index).
//
// The same pattern works against live websites through CrawlMany, where the
// process-wide default politeness registry (or the one set as
// Config.Hosts) additionally guarantees that two crawls pointed at the
// same host stay Config.Politeness apart:
//
//	res, err := sbcrawl.CrawlMany([]sbcrawl.Config{
//		{Root: "https://www.example.org/", MaxRequests: 5000},
//		{Root: "https://data.example.net/", MaxRequests: 5000},
//	}, sbcrawl.FleetOptions{Workers: 4})
//
// Sharing rules: a Site is immutable and safe to share across crawls; a
// Config is plain data; everything stateful (crawler, fetcher, frontier)
// is created per site inside the fleet.
package main

import (
	"fmt"
	"log"

	"sbcrawl"
)

func main() {
	codes := []string{"cl", "cn", "qa", "ok", "nc", "wo"}
	sites := make([]*sbcrawl.Site, len(codes))
	for i, code := range codes {
		site, err := sbcrawl.GenerateSite(code, 0.002, 7)
		if err != nil {
			log.Fatal(err)
		}
		sites[i] = site
	}

	res, err := sbcrawl.CrawlSites(sites, sbcrawl.Config{Seed: 7}, sbcrawl.FleetOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet: %d sites, %d ok, %d failed\n", len(res.Sites), res.Completed, res.Failed)
	for _, s := range res.Sites {
		if s.Err != nil {
			fmt.Printf("  %-4s FAILED: %v\n", s.Label, s.Err)
			continue
		}
		fmt.Printf("  %-4s %4d targets in %5d requests (%.1f MB)\n",
			s.Label, len(s.Result.Targets), s.Result.Requests,
			float64(s.Result.TargetBytes+s.Result.NonTargetBytes)/1e6)
	}
	fmt.Printf("total: %d targets, %d requests, %.1f MB target / %.1f MB overhead\n",
		res.Targets, res.Requests,
		float64(res.TargetBytes)/1e6, float64(res.NonTargetBytes)/1e6)
	if n := len(res.Curve); n > 0 {
		last := res.Curve[n-1]
		fmt.Printf("merged curve: %d points, final point at %d requests/site\n", n, last.Requests)
	}
}
