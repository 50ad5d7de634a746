package codec_test

// Shared fixtures for the cross-package codec tests: representative values
// of the persistence-plane types, shaped like what a real crawl writes
// (replay responses with HTML bodies, checkpoints embedding frontier
// snapshots, the full done-record with every optional section present).

import (
	"bytes"
	"time"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
)

func sampleResponse() fetch.Response {
	return fetch.Response{
		URL:           "http://site-ab.test/docs/page-017.html",
		Status:        200,
		MIME:          "text/html",
		Location:      "",
		Body:          bytes.Repeat([]byte("<html><body><a href=\"/data/file.csv\">d</a></body></html>\n"), 140),
		ContentLength: 8120,
		Interrupted:   false,
		RetryAfter:    0,
	}
}

func sampleFrontierBlob() []byte {
	items := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		items = append(items, "http://site-ab.test/dir/page-"+string(rune('a'+i%26))+"/leaf.html")
	}
	blob, err := codec.AppendFrontierState(nil, frontier.QueueState{Items: items})
	if err != nil {
		panic(err)
	}
	return blob
}

func sampleCheckpoint() core.Checkpoint {
	return core.Checkpoint{
		Requests:       1200,
		HeadRequests:   37,
		Targets:        210,
		TargetBytes:    9_412_003,
		NonTargetBytes: 55_731_919,
		Visited:        1403,
		TunerWindow:    8,
		Frontier:       sampleFrontierBlob(),
	}
}

func sampleResult() *core.Result {
	return &core.Result{
		Crawler: "bfs",
		Trace: &core.Trace{
			Targets:        []int32{0, 1, 1, 2, 3},
			TargetBytes:    []int64{0, 4096, 4096, 9000, 12000},
			NonTargetBytes: []int64{1024, 2048, 4096, 8192, 16384},
		},
		Targets:        []string{"http://s/a.csv", "http://s/b.csv", "http://s/c.csv"},
		Requests:       48,
		HeadRequests:   3,
		TargetBytes:    25096,
		NonTargetBytes: 31744,
		Steps:          51,
		EarlyStopped:   false,
		Actions: []core.ActionStat{
			{ID: 0, MeanReward: 0.25, Selections: 12, Paths: 4},
			{ID: 3, MeanReward: 0.75, Selections: 30, Paths: 9},
		},
		Confusion: &classify.Confusion{Counts: [3][3]int{{5, 1, 0}, {2, 9, 1}, {0, 0, 30}}},
		Spec:      &fetch.PrefetchStats{Launched: 40, Hits: 31, Misses: 9, Evicted: 2, HeadHits: 1, SharedHits: 4},
		ParseHits: 17,
		Fabric: &fabric.Stats{
			Partitions: 4, Forwarded: 122, Stalls: 3, MaxQueueDepth: 19,
			DemandHits: 7, DemandMisses: 2, PartitionFetches: []int{12, 11, 13, 12},
		},
		Faults: &fetch.FaultStats{
			Retries: 9, RetrySuccesses: 7, Exhausted: 1,
			BackoffWait: 1500 * time.Millisecond, BreakerTrips: 1, BreakerFastFails: 4,
			FailedRequests: 2, QuarantinedHosts: []string{"dead.test"},
		},
	}
}

func sampleEnvelope() fabric.Envelope {
	return fabric.Envelope{
		From: 2,
		To:   0,
		URLs: []string{"http://s/p1.html", "http://s/p2.html", "http://s/p3.html"},
	}
}

// decodeEnvelope is the inverse of fabric.AppendEnvelope.
func decodeEnvelope(raw []byte) (fabric.Envelope, error) {
	var e fabric.Envelope
	payload, err := codec.Header(raw, codec.KindEnvelope)
	if err != nil {
		return e, err
	}
	r := codec.NewReader(payload)
	e.From = r.Int()
	e.To = r.Int()
	e.URLs = r.Strings()
	return e, r.Close()
}
