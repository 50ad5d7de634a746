package store

// FuzzScanSegment: Open must survive any segment bytes — it either indexes
// a record or reports damage through Recovery(), and it never panics,
// over-allocates from a forged length, or fails the Open. The seed corpus
// is built from a real store dump — a segment written by this test (plain
// records plus a group-commit batch), whole and torn inside its last
// record — plus hand-made framing edge cases.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSampleSegment writes a store with plain and batch records and
// returns the raw bytes of its first segment.
func buildSampleSegment(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutBatch([]KV{
		{Key: "batch-a", Val: []byte("alpha")},
		{Key: "batch-b", Val: []byte("beta")},
		{Key: "key-3", Val: []byte("superseded")},
	}); err != nil {
		t.Fatal(err)
	}
	name := s.segs[0].name
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func FuzzScanSegment(f *testing.F) {
	sample := buildSampleSegment(f)
	f.Add(sample)
	f.Add(sample[:len(sample)-7]) // a crash mid-append: the batch record torn
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                                   // truncated header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0, 'k', 'v'}) // implausible keyLen

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on arbitrary segment bytes: %v", err)
		}
		// The index must be internally consistent: every key Gets back.
		for _, k := range s.Keys("") {
			if _, ok := s.AppendValue(nil, k); !ok {
				t.Fatalf("indexed key %q unreadable", k)
			}
		}
		// And the ordered keys must list exactly what the index holds.
		checkOrderedKeys(t, s, "", "key-", "batch-a", "\xff")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanSegmentByteFlips mutates every byte of a real segment in turn:
// each flip must be caught — Open succeeds, and either the CRC/framing
// rejects the damaged region (Recovery reports it) or the store's live
// content differs from the pristine one. A flip that goes completely
// unnoticed would mean a hole in the CRC coverage.
func TestScanSegmentByteFlips(t *testing.T) {
	pristine := buildSampleSegment(t)
	want := map[string]string{}
	{
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range s.Keys("") {
			v, _ := s.AppendValue(nil, k)
			want[k] = string(v)
		}
		s.Close()
	}
	for off := range pristine {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0xFF
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		if len(s.Recovery()) == 0 {
			// No damage reported: the store must not silently serve wrong
			// bytes — everything it indexed must match the pristine content.
			for _, k := range s.Keys("") {
				v, _ := s.AppendValue(nil, k)
				if want[k] != string(v) {
					t.Fatalf("offset %d: silent corruption: %q = %q, want %q", off, k, v, want[k])
				}
			}
			t.Errorf("offset %d: flip not reported by Recovery()", off)
		}
		s.Close()
	}
}
