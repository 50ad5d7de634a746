// Command stop_resume demonstrates the persistent crawl store: a crawl
// stopped mid-flight (here: by exhausting a deliberately small budget)
// leaves every response it fetched in an on-disk segment log, and
// re-running the same Config with Resume picks the crawl up again — the
// already-fetched prefix replays from disk at memory speed, the rest is
// fetched live, and the final Result is byte-identical to a run that was
// never stopped.
//
// The same Config.StorePath works for fleets: CrawlSites / CrawlMany write
// every site through one store (namespaced inside), restart warm, and with
// Resume skip the sites whose final results are already recorded.
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"

	"sbcrawl"
)

func main() {
	dir, err := os.MkdirTemp("", "sbcrawl-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	site, err := sbcrawl.GenerateSite("ju", 0.01, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 42, StorePath: dir}

	// Leg 1: "killed" after 40 requests. Everything it saw is now durable.
	stopped := cfg
	stopped.MaxRequests = 40
	partial, err := sbcrawl.CrawlSite(site, stopped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stopped crawl:  %3d requests, %2d targets, %d responses durable\n",
		partial.Requests, len(partial.Targets), partial.Store.ReplayStored)

	// Leg 2: resume with the full budget. The first 40 requests replay
	// from the store; the crawl continues exactly where it stopped.
	resumed := cfg
	resumed.Resume = true
	res, err := sbcrawl.CrawlSite(site, resumed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed crawl:  %3d requests, %2d targets (%d replayed from disk, %d fetched)\n",
		res.Requests, len(res.Targets), res.Store.ReplayHits, res.Store.ReplayMisses)

	// Proof: the resumed run equals a run that was never stopped.
	reference, err := sbcrawl.CrawlSite(site, sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	res.Store = nil // diagnostics differ; the crawl outcome must not
	fmt.Printf("byte-identical to an uninterrupted run: %v\n",
		reflect.DeepEqual(res, reference))

	// Leg 3: Resume again — the done-record answers without re-crawling.
	res2, err := sbcrawl.CrawlSite(site, resumed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second resume:  served from done-record: %v\n", res2.Store.Completed)
}
