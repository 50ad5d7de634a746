package store

// Tests for the group-commit fast path (PutBatch) and the read-your-writes
// tail: Get must serve records still sitting in the write buffer without
// forcing a flush, PutBatch must frame the whole batch as one CRC-covered
// record that rescans correctly, and a damaged batch must be rejected
// atomically by recovery.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func segPath(dir string, s *Store) string {
	return filepath.Join(dir, s.segs[len(s.segs)-1].name)
}

func TestPutBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	for i := 0; i < 50; i++ {
		kvs = append(kvs, KV{Key: fmt.Sprintf("b%03d", i), Val: []byte(fmt.Sprintf("batch-value-%d", i))})
	}
	// Interleave with plain records on both sides of the batch.
	if err := s.Put("before", []byte("plain-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after", []byte("plain-2")); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, label string) {
		t.Helper()
		for i := 0; i < 50; i++ {
			v, ok := st.AppendValue(nil, fmt.Sprintf("b%03d", i))
			if !ok || string(v) != fmt.Sprintf("batch-value-%d", i) {
				t.Fatalf("%s: Get(b%03d) = %q, %v", label, i, v, ok)
			}
		}
		for k, want := range map[string]string{"before": "plain-1", "after": "plain-2"} {
			if v, ok := st.AppendValue(nil, k); !ok || string(v) != want {
				t.Fatalf("%s: Get(%s) = %q, %v", label, k, v, ok)
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the batch record rescans into the same index.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
	if rec := s2.Recovery(); rec != nil {
		t.Fatalf("clean batch store reported recovery: %+v", rec)
	}
}

func TestPutBatchLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]KV{{Key: "k", Val: []byte("v2")}, {Key: "k2", Val: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.AppendValue(nil, "k"); string(v) != "v2" {
		t.Fatalf("batch did not supersede plain record: %q", v)
	}
	if err := s.Put("k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.AppendValue(nil, "k"); string(v) != "v3" {
		t.Fatalf("plain record did not supersede batch entry: %q", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.AppendValue(nil, "k"); string(v) != "v3" {
		t.Fatalf("reopened order wrong: %q", v)
	}
}

func TestPutBatchEmptyAndInvalid(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := s.PutBatch([]KV{{Key: "", Val: []byte("x")}}); err == nil {
		t.Fatal("empty key accepted")
	}
	if v, ok := s.AppendValue(nil, "x"); ok {
		t.Fatalf("rejected batch left a record: %q", v)
	}
}

// TestGetServesUnflushedTail: a Put is readable immediately, without the
// store touching the file — the old implementation flushed on every Get of
// an active-segment record.
func TestGetServesUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("tail", []byte("unflushed-value")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.AppendValue(nil, "tail"); !ok || string(v) != "unflushed-value" {
		t.Fatalf("Get(tail) = %q, %v", v, ok)
	}
	// The read must not have flushed: the active segment file is still empty.
	info, err := os.Stat(segPath(dir, s))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("Get flushed the write buffer: segment has %d bytes", info.Size())
	}
	// After Sync the same record is served from the file.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.wbuf); got != 0 {
		t.Fatalf("wbuf not drained by Sync: %d bytes", got)
	}
	if v, ok := s.AppendValue(nil, "tail"); !ok || string(v) != "unflushed-value" {
		t.Fatalf("post-flush Get(tail) = %q, %v", v, ok)
	}
}

// TestWriteBufferAutoFlush: the write buffer is bounded — a burst of Puts
// beyond flushAt spills to the file without an explicit Sync.
func TestWriteBufferAutoFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 1024)
	for i := 0; i < 2*flushAt/len(val); i++ {
		if err := s.Put(fmt.Sprintf("k%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.wbuf); got > flushAt {
		t.Fatalf("write buffer grew past flushAt: %d bytes", got)
	}
	info, err := os.Stat(segPath(dir, s))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("no bytes reached the file despite exceeding flushAt")
	}
	// Every record is still readable, flushed or buffered.
	for i := 0; i < 2*flushAt/len(val); i++ {
		if _, ok := s.AppendValue(nil, fmt.Sprintf("k%04d", i)); !ok {
			t.Fatalf("Get(k%04d) missing", i)
		}
	}
}

// TestBatchCorruptionAtomic: a batch with a flipped payload byte is
// rejected whole on reopen — no partial index from a half-valid batch.
func TestBatchCorruptionAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	for i := 0; i < 10; i++ {
		kvs = append(kvs, KV{Key: fmt.Sprintf("b%d", i), Val: []byte("batch-payload")})
	}
	batchStart := s.segs[len(s.segs)-1].size // batch record begins here
	if err := s.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the batch payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[batchStart+recHeaderLen+20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); len(rec) == 0 {
		t.Fatal("corrupted batch not reported")
	}
	if v, ok := s2.AppendValue(nil, "keep"); !ok || string(v) != "survives" {
		t.Fatalf("record before damage lost: %q, %v", v, ok)
	}
	for i := 0; i < 10; i++ {
		if _, ok := s2.AppendValue(nil, fmt.Sprintf("b%d", i)); ok {
			t.Fatalf("entry b%d of the corrupted batch was indexed", i)
		}
	}
}

// TestSnapshotPreservesBatchEntries: compaction rewrites batch entries as
// plain records and the store stays consistent after reopen.
func TestSnapshotPreservesBatchEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	for i := 0; i < 30; i++ {
		kvs = append(kvs, KV{Key: fmt.Sprintf("b%02d", i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := s.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.GarbageRatio(); got != 0 {
		t.Fatalf("GarbageRatio after snapshot = %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 30; i++ {
		if v, ok := s2.AppendValue(nil, fmt.Sprintf("b%02d", i)); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(b%02d) after snapshot+reopen = %q, %v", i, v, ok)
		}
	}
}
