// Command crawld_client demonstrates the crawl-as-a-service daemon end to
// end, including the property that makes it a service: session durability
// across daemon restarts.
//
// It runs two daemons in-process (each exactly what `cmd/crawld` serves
// over its listener):
//
//  1. a baseline daemon runs a two-site session to completion,
//  2. a second daemon on its own store starts the same session, is killed
//     mid-crawl, restarted on the same store, and the client re-attaches by
//     POSTing the same spec —
//
// and then checks the resumed session's Results are identical to the
// uninterrupted baseline. Nothing about the session spec says "resume":
// the daemon's store makes interruption invisible to results.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"reflect"
	"time"

	"sbcrawl/internal/serve"
)

// spec is the session both daemons run: one tenant, two simulated sites,
// deterministic seeds. POSTing it twice — even to a different daemon
// incarnation — addresses the same session.
var spec = serve.SessionSpec{
	Tenant: "demo",
	Name:   "two-sites",
	Crawl: serve.CrawlSpec{
		Strategy:        "sb",
		Seed:            42,
		SimLatency:      200 * time.Microsecond, // slow the crawl enough to kill it mid-flight
		CheckpointEvery: 16,                     // tight checkpoints so mid-kill progress is visible
	},
	Sites: []serve.SiteSpec{
		{Code: "cl", Scale: 0.01, Seed: 1},
		{Code: "ju", Scale: 0.01, Seed: 2},
	},
}

// daemon starts a Server and an HTTP front for it, like cmd/crawld does.
func daemon(storePath string) (*serve.Server, *httptest.Server, *serve.Client, error) {
	srv, err := serve.New(serve.Config{StorePath: storePath, Workers: 2})
	if err != nil {
		return nil, nil, nil, err
	}
	web := httptest.NewServer(srv.Handler())
	return srv, web, serve.NewClient(web.URL), nil
}

func main() {
	ctx := context.Background()
	baseDir, err := os.MkdirTemp("", "crawld-base-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(baseDir)
	killDir, err := os.MkdirTemp("", "crawld-kill-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(killDir)

	// Baseline: the session runs to completion, uninterrupted.
	srv, web, client, err := daemon(baseDir)
	if err != nil {
		log.Fatal(err)
	}
	created, err := client.Create(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline daemon: session %s created (%d units)\n", created.ID, created.Units)
	baseline, err := client.WaitDone(ctx, created.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline done: %d requests, %d targets\n", baseline.Requests, baseline.Targets)
	web.Close()
	srv.Close()

	// Victim: same session on a fresh store; kill the daemon mid-crawl.
	srv, web, client, err = daemon(killDir)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Create(ctx, spec); err != nil {
		log.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	mid, err := client.Get(ctx, created.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("killing daemon mid-session: state=%s units_done=%d/%d requests so far=%d\n",
		mid.State, mid.UnitsDone, mid.Units, mid.Requests)
	web.Close()
	srv.Close() // cancels running crawls; their responses are already on disk

	// Restart on the same store. The daemon reloads the session from its
	// durable record and re-enqueues its units; the client re-attaches
	// simply by creating the same spec again.
	srv, web, client, err = daemon(killDir)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	defer web.Close()
	attached, err := client.Create(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted daemon: re-attached to session %s (state=%s)\n", attached.ID, attached.State)
	resumed, err := client.WaitDone(ctx, attached.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed done: %d requests, %d targets\n", resumed.Requests, resumed.Targets)

	// The interrupted-then-resumed session matches the uninterrupted one
	// exactly (store diagnostics aside — the resumed run legitimately
	// replayed more from disk).
	for i := range baseline.Results {
		b, r := baseline.Results[i], resumed.Results[i]
		b.Result.Store, r.Result.Store = nil, nil
		if !reflect.DeepEqual(b, r) {
			log.Fatalf("unit %d diverged after daemon kill+restart", i)
		}
		fmt.Printf("unit %-2s identical: %d requests, %d targets\n",
			b.Label, b.Result.Requests, len(b.Result.Targets))
	}
	fmt.Println("kill + restart + re-attach produced identical results")
}
