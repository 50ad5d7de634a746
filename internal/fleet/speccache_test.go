package fleet

import (
	"fmt"
	"sync"
	"testing"

	"sbcrawl/internal/fetch"
)

func TestSpecCachePublishLookup(t *testing.T) {
	c := NewSpecCache(4)
	if _, ok := c.Lookup("u"); ok {
		t.Fatal("empty cache answered a lookup")
	}
	c.Publish("u", fetch.Response{URL: "u", Status: 200, Body: []byte("one")})
	resp, ok := c.Lookup("u")
	if !ok || string(resp.Body) != "one" {
		t.Fatalf("lookup = %+v, %t", resp, ok)
	}
	// First write wins: every sharing crawl fetches identical content, so
	// a second publish for the URL is a no-op.
	c.Publish("u", fetch.Response{URL: "u", Status: 200, Body: []byte("two")})
	if resp, _ := c.Lookup("u"); string(resp.Body) != "one" {
		t.Errorf("duplicate publish replaced the entry: %q", resp.Body)
	}
	// Contains is the hint-scan probe: residency alone.
	if !c.Contains("u") || c.Contains("absent") {
		t.Error("Contains residency answers wrong")
	}
	if len(c.entries) != 1 || len(c.order) != 1 {
		t.Errorf("%d entries, %d in publish order, want 1 each", len(c.entries), len(c.order))
	}
}

func TestSpecCacheEvictsOldestAtCap(t *testing.T) {
	c := NewSpecCache(3)
	for i := 0; i < 5; i++ {
		u := fmt.Sprintf("u%d", i)
		c.Publish(u, fetch.Response{URL: u, Status: 200})
	}
	for i, want := range []bool{false, false, true, true, true} {
		_, ok := c.Lookup(fmt.Sprintf("u%d", i))
		if ok != want {
			t.Errorf("u%d resident = %t, want %t (oldest-first eviction)", i, ok, want)
		}
	}
	if len(c.entries) != 3 || len(c.order) != 3 {
		t.Errorf("%d entries, %d in publish order, want 3 each", len(c.entries), len(c.order))
	}
}

func TestSpecCacheDefaultCap(t *testing.T) {
	c := NewSpecCache(0)
	if c.cap != DefaultSpecCacheCap {
		t.Errorf("cap = %d, want the default %d", c.cap, DefaultSpecCacheCap)
	}
}

// TestSpecCacheConcurrentAccess exists for the -race CI pass: publishers
// and readers from many goroutines, as a fleet's prefetchers drive it.
func TestSpecCacheConcurrentAccess(t *testing.T) {
	c := NewSpecCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := fmt.Sprintf("u%d", i%100)
				if i%2 == 0 {
					c.Publish(u, fetch.Response{URL: u, Status: 200})
				} else {
					c.Lookup(u)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.entries) > 64 {
		t.Errorf("stored %d entries over the cap", len(c.entries))
	}
}
