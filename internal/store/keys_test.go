package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// checkOrderedKeys holds Keys and Count for each prefix to the definition
// they replaced: a scan of the whole index map, filtered and sorted.
func checkOrderedKeys(t *testing.T, s *Store, prefixes ...string) {
	t.Helper()
	for _, p := range prefixes {
		var want []string
		for k := range s.index {
			if strings.HasPrefix(k, p) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		// Count first: it may answer over an unmerged tail, Keys merges it.
		if got := s.Count(p); got != len(want) {
			t.Fatalf("Count(%q) = %d, index scan %d", p, got, len(want))
		}
		if got := s.Keys(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Keys(%q) = %q, index scan %q", p, got, want)
		}
		if got := s.Count(p); got != len(want) {
			t.Fatalf("Count(%q) = %d after Keys, index scan %d", p, got, len(want))
		}
	}
}

// TestOrderedKeysMatchIndexScan interleaves every way a key can enter the
// store — Put of a new key, overwrite, PutBatch, a Snapshot rewriting the
// index, Close and Open rebuilding it from the segments — with listings,
// so the sorted run, its arrival-order tail and the merge between them are
// checked in every state: empty run, empty tail, a tail short enough for
// Count to scan and one long enough for it to merge, arrivals in front of,
// inside and behind the run.
func TestOrderedKeysMatchIndexScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	rng := rand.New(rand.NewSource(20))
	namespaces := []string{"a|", "a|r|", "b\xff", "b\xff\xff", "m|", "z"}
	written := []string{"none"}
	key := func() string {
		k := fmt.Sprintf("%s%03d", namespaces[rng.Intn(len(namespaces))], rng.Intn(400))
		written = append(written, k)
		return k
	}
	val := func() []byte { return []byte(fmt.Sprint(rng.Int63())) }
	var shortTails, longTails int
	check := func() {
		t.Helper()
		if n := len(s.fresh); n > countMergeAt {
			longTails++
		} else if n > 0 {
			shortTails++
		}
		checkOrderedKeys(t, s, "", namespaces[rng.Intn(len(namespaces))], written[rng.Intn(len(written))],
			"b\xff", "a|r|399\x00", "zz", "\xff\xff", "b\xff\xff\xff")
	}
	check() // empty store
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(100); {
		case r < 70:
			if err := s.Put(key(), val()); err != nil {
				t.Fatal(err)
			}
		case r < 90:
			kvs := make([]KV, 1+rng.Intn(6))
			for i := range kvs {
				kvs[i] = KV{Key: key(), Val: val()}
			}
			if err := s.PutBatch(kvs); err != nil {
				t.Fatal(err)
			}
		case r < 97:
			check()
		case r < 99:
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	check()
	t.Logf("%d keys; checks over %d short and %d long tails", s.Count(""), shortTails, longTails)
	if n := s.Count(""); n < 1000 || shortTails < 10 || longTails < 10 {
		t.Fatalf("the walk left %d keys and checked %d short and %d long tails: too few to have exercised both paths", n, shortTails, longTails)
	}
}
