package classify

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// drainArenas empties the arena free list, so the next NewOnline starts with
// no arena.
func drainArenas() {
	for len(arenaFree) > 0 {
		<-arenaFree
	}
}

// onlineTrace drives o through a seeded stream of Classify, Guess and
// Observe calls and records every prediction, the confusion matrix, and the
// model's probe scores every 50 calls.
func onlineTrace(o *Online, seed int64, steps int) (preds []int, conf [3][3]int, scores []float64) {
	probes := []LinkContext{
		{URL: dataURL(500), AnchorText: "download"},
		{URL: htmlURL(500), AnchorText: "next page", TagPath: "html body nav a"},
	}
	rng := rand.New(rand.NewSource(seed))
	for step := range steps {
		link := streamLink(rng)
		switch op := rng.Intn(10); {
		case op < 5:
			c, _ := o.Classify(link)
			preds = append(preds, c)
		case op < 7:
			preds = append(preds, o.Guess(link))
		default:
			o.Observe(link.URL, fakeTruth(link.URL))
		}
		if step%50 == 0 {
			for _, p := range probes {
				scores = append(scores, score(o.model, Features(o.cfg.Features, p)))
			}
		}
	}
	return preds, o.Confusion().Counts, scores
}

// TestReleasedArenaIsFresh: a classifier on the batch arena a used one
// released mid-batch predicts, confuses and scores bit for bit like one built
// with the free list empty.
func TestReleasedArenaIsFresh(t *testing.T) {
	defer drainArenas()
	for _, set := range []FeatureSet{URLOnly, URLContent} {
		t.Run(set.String(), func(t *testing.T) {
			newOnline := func() *Online { return NewOnline(Config{BatchSize: 5, Features: set, Head: fakeTruth}) }
			drainArenas()
			wantPreds, wantConf, wantScores := onlineTrace(newOnline(), 21, 1500)

			used := newOnline()
			onlineTrace(used, 4, 300)
			for len(used.batch) != 2 {
				used.Observe(dataURL(1), ClassTarget)
			}
			parked := &used.arena.IDs[:1][0]
			used.Release()
			if cap(used.arena.IDs) != 0 || len(used.batch) != 0 || len(arenaFree) != 1 {
				t.Fatalf("after Release: arena cap %d, batch %d, %d parked", cap(used.arena.IDs), len(used.batch), len(arenaFree))
			}
			reused := newOnline()
			if len(reused.arena.IDs) != 0 || len(reused.arena.Vals) != 0 || &reused.arena.IDs[:1][0] != parked {
				t.Fatal("NewOnline did not take the parked arena, emptied")
			}
			preds, conf, scores := onlineTrace(reused, 21, 1500)
			if !slices.Equal(preds, wantPreds) {
				t.Error("predictions on a reused arena differ from a fresh one's")
			}
			if conf != wantConf {
				t.Errorf("confusion on a reused arena %v, on a fresh one %v", conf, wantConf)
			}
			if !slices.EqualFunc(scores, wantScores, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("probe scores on a reused arena %v, on a fresh one %v", scores, wantScores)
			}
		})
	}
}

// TestReleaseParksTablesEmpty: Release, mid-batch, parks the pending map
// cleared — no URL or context of the crawl that classified them — the example
// slots zeroed and the arena and scratch emptied, and the next NewOnline
// takes them.
func TestReleaseParksTablesEmpty(t *testing.T) {
	defer drainArenas()
	drainArenas()
	o := NewOnline(Config{Features: URLContent, BatchSize: 5, Head: fakeTruth})
	for i := range 50 {
		o.Classify(LinkContext{URL: htmlURL(i), AnchorText: "next"})
	}
	for i := range 3 {
		o.Observe(htmlURL(i), ClassHTML)
	}
	if len(o.pending) == 0 || len(o.batch) == 0 {
		t.Fatalf("%d pending, %d batched: want both held at Release", len(o.pending), len(o.batch))
	}
	o.Release()
	if o.pending != nil || o.batch != nil || len(arenaFree) != 1 {
		t.Fatalf("after Release: pending %v, batch %v, %d parked", o.pending, o.batch, len(arenaFree))
	}
	parked := <-arenaFree
	if len(parked.pending) != 0 || len(parked.batch) != 0 || len(parked.arena.IDs) != 0 || len(parked.x.IDs) != 0 {
		t.Fatalf("parked: %d pending, %d examples, %d arena and %d scratch features: want all empty",
			len(parked.pending), len(parked.batch), len(parked.arena.IDs), len(parked.x.IDs))
	}
	for i, ex := range parked.batch[:cap(parked.batch)] {
		if ex.X.IDs != nil || ex.X.Vals != nil || ex.Y != 0 {
			t.Fatalf("parked example slot %d holds %+v", i, ex)
		}
	}
	arenaFree <- parked
	reused := NewOnline(Config{})
	if reflect.ValueOf(reused.pending).UnsafePointer() != reflect.ValueOf(parked.pending).UnsafePointer() {
		t.Fatal("NewOnline did not take the parked pending map")
	}
}

// TestOutsizedPendingIsNotParked: a pending map that once held more than
// maxParkedPending predictions is left to the GC even when they have all been
// observed since: a map keeps the buckets it grew.
func TestOutsizedPendingIsNotParked(t *testing.T) {
	defer drainArenas()
	drainArenas()
	o := NewOnline(Config{})
	for i := range maxParkedPending + 1 {
		o.Classify(LinkContext{URL: htmlURL(i)})
	}
	for i := range maxParkedPending + 1 {
		o.Observe(htmlURL(i), ClassNeither)
	}
	o.Release()
	select {
	case got := <-arenaFree:
		if got.pending != nil {
			t.Errorf("a pending map that held %d predictions was parked", maxParkedPending+1)
		}
	default:
	}
}
