package sbcrawl

import (
	"reflect"
	"testing"

	"sbcrawl/internal/fetch"
)

// hideRecycler shows the engine a replay database it cannot hand bodies back
// to, as any wrapping fetcher does.
type hideRecycler struct{ fetch.Fetcher }

// countRecycles forwards Recycle to the wrapped replay database and counts
// the non-empty bodies handed back.
type countRecycles struct {
	fetch.Fetcher
	n int
}

func (c *countRecycles) Recycle(body []byte) {
	if len(body) > 0 {
		c.n++
	}
	c.Fetcher.(fetch.Recycler).Recycle(body)
}

// TestReplayLendingEquivalence: over a warm store, where the sequential
// engine hands every replayed body back to fetch.Replay for reuse, a crawl
// returns exactly the Result of the same crawl through a wrapper that hides
// the hand-back and of the store-less crawl — for all nine strategies, with
// Prefetch off and on (the pipelined engine hands nothing back).
func TestReplayLendingEquivalence(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := openCrawlStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for _, width := range []int{0, 8} {
		for _, s := range allStrategies {
			cfg := Config{Strategy: s, Seed: 2, Prefetch: width}
			plain, err := CrawlSite(site, cfg)
			if err != nil {
				t.Fatal(err)
			}
			crawl := func(wrap func(fetch.Fetcher) fetch.Fetcher) *Result {
				env := siteCrawlEnv(site, cfg, nil)
				cs.attach(env, cfg, simNamespace(site))
				env.Fetcher = wrap(env.Fetcher)
				res, _, err := execCrawl(cfg, env, site.PageCount())
				if err != nil {
					t.Fatal(err)
				}
				return convertResult(res)
			}
			crawl(func(f fetch.Fetcher) fetch.Fetcher { return f }) // warm the store
			counter := &countRecycles{}
			lending := crawl(func(f fetch.Fetcher) fetch.Fetcher { counter.Fetcher = f; return counter })
			hidden := crawl(func(f fetch.Fetcher) fetch.Fetcher { return hideRecycler{f} })
			if !reflect.DeepEqual(lending, plain) || !reflect.DeepEqual(hidden, plain) {
				t.Errorf("%s prefetch=%d: results differ (lending equal %v, hidden equal %v)", s, width,
					reflect.DeepEqual(lending, plain), reflect.DeepEqual(hidden, plain))
			}
			if handedBack := counter.n > 0; handedBack != (width == 0) {
				t.Errorf("%s prefetch=%d: %d bodies handed back", s, width, counter.n)
			}
		}
	}
}
