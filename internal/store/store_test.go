package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Count(""); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		v, ok := s.AppendValue(nil, fmt.Sprintf("k%03d", i))
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(k%03d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := s.AppendValue(nil, "missing"); ok {
		t.Fatal("Get(missing) = true")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt from the segments.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(""); got != 100 {
		t.Fatalf("reopened Len = %d, want 100", got)
	}
	v, ok := s2.AppendValue(nil, "k042")
	if !ok || string(v) != "value-42" {
		t.Fatalf("reopened Get(k042) = %q, %v", v, ok)
	}
	if rec := s2.Recovery(); rec != nil {
		t.Fatalf("clean store reported recovery: %+v", rec)
	}
}

func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := s.AppendValue(nil, "k"); string(v) != "v4" {
		t.Fatalf("Get = %q, want v4", v)
	}
	if s.GarbageRatio() <= 0 {
		t.Fatal("superseded records should count as garbage")
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.AppendValue(nil, "k"); string(v) != "v4" {
		t.Fatalf("reopened Get = %q, want v4", v)
	}
	if n := s2.Count(""); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestKeysPrefixAndPrefixed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ns := Prefixed(s, "a|")
	other := Prefixed(s, "b|")
	ns.Put("x", []byte("1"))
	ns.Put("y", []byte("2"))
	other.Put("x", []byte("3"))
	if got := ns.Keys(""); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("ns.Keys = %v", got)
	}
	if v, _ := other.AppendValue(nil, "x"); string(v) != "3" {
		t.Fatalf("namespaces collided: %q", v)
	}
	if got := s.Keys("a|"); !reflect.DeepEqual(got, []string{"a|x", "a|y"}) {
		t.Fatalf("raw Keys = %v", got)
	}
}

// TestPrefixedOfPrefixed: a namespace of a namespace reads and writes the
// same key bytes as one namespace under the joined prefix, and lists and
// counts the same keys.
func TestPrefixedOfPrefixed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nested := Prefixed(Prefixed(s, "site|r|"), "g|")
	if err := nested.Put("u", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := nested.Put("v", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if got := s.Keys(""); !reflect.DeepEqual(got, []string{"site|r|g|u", "site|r|g|v"}) {
		t.Fatalf("raw keys %v", got)
	}
	flat := Prefixed(s, "site|r|g|")
	for _, ns := range []Backend{nested, flat} {
		if v, ok := ns.AppendValue(nil, "u"); !ok || string(v) != "1" {
			t.Errorf("AppendValue(u) = %q, %v", v, ok)
		}
		if got := ns.Keys(""); !reflect.DeepEqual(got, []string{"u", "v"}) || ns.Count("") != 2 {
			t.Errorf("Keys = %v, Count = %d", got, ns.Count(""))
		}
	}
	if _, ok := Prefixed(s, "site|r|").AppendValue(nil, "u"); ok {
		t.Error("the outer namespace reads the inner one's key without its prefix")
	}
}

// TestPrefixedReadAllocs: a namespaced read into a warm buffer allocates
// nothing; the store joins the namespace and the key in its own scratch.
func TestPrefixedReadAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ns := Prefixed(Prefixed(s, "site|r|"), "g|")
	const key = "https://www.example.org/data/file.csv"
	if err := ns.Put(key, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		var ok bool
		if buf, ok = ns.AppendValue(buf[:0], key); !ok {
			t.Fatal("namespaced read missed")
		}
	}); n != 0 {
		t.Errorf("a namespaced read allocates %v times, want 0", n)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%02d", i%10), []byte(fmt.Sprintf("gen-%d", i)))
	}
	if s.GarbageRatio() < 0.5 {
		t.Fatalf("expected heavy garbage before snapshot, got %.2f", s.GarbageRatio())
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if g := s.GarbageRatio(); g != 0 {
		t.Fatalf("GarbageRatio after snapshot = %.2f, want 0", g)
	}
	// The store still serves, accepts writes, and survives a reopen.
	if v, _ := s.AppendValue(nil, "k03"); string(v) != "gen-43" {
		t.Fatalf("post-snapshot Get = %q", v)
	}
	s.Put("new", []byte("after"))
	s.Close()

	files, _ := os.ReadDir(dir)
	if len(files) > 2 {
		t.Fatalf("snapshot left %d segments behind", len(files))
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Count(""); n != 11 {
		t.Fatalf("reopened Len = %d, want 11", n)
	}
	if v, _ := s2.AppendValue(nil, "new"); string(v) != "after" {
		t.Fatalf("post-snapshot append lost: %q", v)
	}
}

// corruptTail opens the newest non-empty segment and damages its tail.
func corruptTail(t *testing.T, dir string, f func(data []byte) []byte) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no non-empty segment to corrupt")
}

func TestRecoveryCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 50))
	}
	s.Close()
	// Flip a byte inside the last record's value.
	corruptTail(t, dir, func(data []byte) []byte {
		data[len(data)-10] ^= 0xff
		return data
	})
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should recover, not fail: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); len(rec) != 1 {
		t.Fatalf("Recovery = %+v, want one report", rec)
	}
	if n := s2.Count(""); n != 9 {
		t.Fatalf("Len = %d, want 9 (the flipped record dropped)", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.AppendValue(nil, key); !ok || string(v) != key {
					t.Errorf("Get(%s) = %q, %v", key, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Count(""); n != 8*200 {
		t.Fatalf("Len = %d, want %d", n, 8*200)
	}
}

func TestOpenRefusesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("second Open of a live store must fail")
	}
	// The conflict is typed and actionable: it matches ErrLocked, exposes
	// the contested directory, and the message tells the operator what to
	// do about it (another process owns the store).
	if !errors.Is(err, ErrLocked) {
		t.Errorf("second Open error does not match ErrLocked: %v", err)
	}
	var lerr *LockedError
	if !errors.As(err, &lerr) {
		t.Fatalf("second Open error is not a *LockedError: %T %v", err, err)
	}
	if lerr.Dir != dir {
		t.Errorf("LockedError.Dir = %q, want %q", lerr.Dir, dir)
	}
	for _, hint := range []string{dir, "another process", "close the other"} {
		if !strings.Contains(err.Error(), hint) {
			t.Errorf("lock error %q does not mention %q", err, hint)
		}
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestCloseReleasesLockWhenCompactionFails: a Close whose compaction cannot
// read a segment back still reports the failure, and still leaves the
// directory open to the next writer instead of ErrLocked for the life of the
// process.
func TestCloseReleasesLockWhenCompactionFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put("k", []byte(fmt.Sprintf("gen-%d", i)))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Cut the segment under the open store: compaction's read of the live
	// record now fails.
	corruptTail(t, dir, func(data []byte) []byte { return data[:10] })
	if err := s.Close(); err == nil {
		t.Fatal("Close over an unreadable segment reported success")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after a failed close-time compaction: %v", err)
	}
	s2.Close()
}

func TestRecoveryMidLogSkipsWithoutTruncating(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("first", []byte("one"))
	s.Close()
	s2, _ := Open(dir)
	s2.Put("second", []byte("two"))
	s2.Close()
	// Damage the FIRST (mid-log) segment: flip a byte inside its record.
	names, err := segmentNames(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", names, err)
	}
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should recover: %v", err)
	}
	defer s3.Close()
	rec := s3.Recovery()
	if len(rec) != 1 || rec[0].Truncated {
		t.Fatalf("mid-log damage should be skipped, not truncated: %+v", rec)
	}
	// The damaged bytes stay on disk for inspection.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("mid-log segment was truncated from %d to %d bytes", len(data), len(after))
	}
	// Later segments still serve.
	if v, ok := s3.AppendValue(nil, "second"); !ok || string(v) != "two" {
		t.Fatalf("Get(second) = %q, %v", v, ok)
	}
	if _, ok := s3.AppendValue(nil, "first"); ok {
		t.Fatal("the damaged record should be unreachable")
	}
}

// TestOpenAllocsIndependentOfValueBytes: Open reads every value to verify
// its CRC but keeps only its location, so rebuilding the index allocates per
// key — through one reused scratch — never per stored byte, for plain
// records and batch payloads alike.
func TestOpenAllocsIndependentOfValueBytes(t *testing.T) {
	const records = 64
	openBytes := func(valLen int) uint64 {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{0xA5}, valLen)
		var batch []KV
		for i := 0; i < records; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i), val); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, KV{Key: fmt.Sprintf("b%03d", i), Val: val[:valLen/8]})
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err = Open(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Count("") != 2*records || len(s.Recovery()) != 0 {
			t.Fatalf("reopened store: %d keys, recovery %v", s.Count(""), s.Recovery())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const big = 64 << 10
	small, large := openBytes(64), openBytes(big)
	// One scratch that grows to the largest record — here the batch payload,
	// records × big/8 — not one buffer per record (records × big and more).
	if limit := small + 2*records*big/8; large > limit {
		t.Errorf("Open allocates with the stored bytes: %d bytes over %d records of %d bytes (limit %d), %d over records of 64", large, records, big, limit, small)
	}
}

// TestAppendValueIntoSpareCapacity: AppendValue keeps dst's bytes, reads into
// its spare capacity whether the record is still buffered or already in the
// file, and leaves dst as it was on a miss.
func TestAppendValueIntoSpareCapacity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "ab:"...)
	for _, flushed := range []bool{false, true} {
		if flushed {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		out, ok := s.AppendValue(dst, "k")
		if !ok || string(out) != "ab:value" || &out[0] != &dst[0] {
			t.Fatalf("flushed %v: AppendValue = %q, %v (same array %v), want \"ab:value\" in dst's array", flushed, out, ok, ok && &out[0] == &dst[0])
		}
	}
	if out, ok := s.AppendValue(dst, "missing"); ok || string(out) != "ab:" {
		t.Fatalf("miss: AppendValue = %q, %v; want dst unchanged and false", out, ok)
	}
}

// TestAppendValueReusedBufferAllocs: a read into a warm reused buffer copies
// the value, it does not allocate one — the cost of reading a 64 KB value is
// that of reading a 64-byte one.
func TestAppendValueReusedBufferAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const big = 64 << 10
	if err := s.Put("small", bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("big", bytes.Repeat([]byte{2}, big)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	readBytes := func(key string) uint64 {
		buf, _ = s.AppendValue(buf[:0], key) // warm: size the buffer once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			buf, _ = s.AppendValue(buf[:0], key)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	if small, large := readBytes("small"), readBytes("big"); large > small+256 {
		t.Errorf("a read into a reused buffer allocates with the value: %d bytes per 64 KB read, %d per 64-byte read", large, small)
	}
}

// TestSnapshotAllocsIndependentOfValueBytes: compaction passes every value
// through one scratch that appendRecord copies out at once, so it allocates
// per key, not per stored byte.
func TestSnapshotAllocsIndependentOfValueBytes(t *testing.T) {
	const records = 64
	snapshotBytes := func(valLen int) uint64 {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		val := bytes.Repeat([]byte{0x5A}, valLen)
		for i := 0; i < records; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = s.Snapshot()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := s.AppendValue(nil, "k042"); s.Count("") != records || !ok || !bytes.Equal(v, val) {
			t.Fatalf("after the snapshot: %d keys, k042 present %v intact %v", s.Count(""), ok, bytes.Equal(v, val))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const big = 64 << 10
	small, large := snapshotBytes(64), snapshotBytes(big)
	// One scratch that grows to the largest value, not a buffer per key
	// (records × big).
	if limit := small + 4*big; large > limit {
		t.Errorf("Snapshot allocates with the stored bytes: %d bytes over %d values of %d bytes (limit %d), %d over values of 64", large, records, big, limit, small)
	}
}

// Recovery reports the damage Open healed (nil for a clean store).
func (s *Store) Recovery() []Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Recovery(nil), s.recovered...)
}
