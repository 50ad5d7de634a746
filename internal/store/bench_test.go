package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchValue is a typical replay-database payload: a simulated page body of
// a few KB.
func benchValue(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, n)
	for i := range val {
		val[i] = byte('a' + rng.Intn(26))
	}
	return val
}

// BenchmarkStoreRoundTrip measures one Put + Get through the segment log —
// the per-response cost a disk-backed replay database pays (target: the
// ~100 MB/s BENCH_store.json trajectory).
func BenchmarkStoreRoundTrip(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := benchValue(4096)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%09d", i)
		if err := s.Put(key, val); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.AppendValue(nil, key); !ok {
			b.Fatal("lost record")
		}
	}
}

// BenchmarkStoreSnapshot measures compaction: rewriting a 1000-entry store
// (half of it garbage) into one snapshot segment.
func BenchmarkStoreSnapshot(b *testing.B) {
	val := benchValue(4096)
	b.SetBytes(int64(len(val)) * 1000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			s.Put(fmt.Sprintf("k%04d", j%1000), val)
		}
		b.StartTimer()
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkResumeOverhead measures Open on an existing store — the index
// rebuild a resumed crawl pays before its first replayed fetch.
func BenchmarkResumeOverhead(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	val := benchValue(4096)
	for j := 0; j < 1000; j++ {
		s.Put(fmt.Sprintf("k%04d", j), val)
	}
	s.Close()
	b.SetBytes(int64(len(val)) * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 1000 {
			b.Fatal("short index")
		}
		s.Close()
	}
}

// BenchmarkStorePutBatch measures the group-commit fast path against the
// same entries written as individual synced Puts — the spill pattern the
// speculation cache uses at crawl shutdown (one header and CRC region for
// the whole batch, one buffered write, one flush).
func BenchmarkStorePutBatch(b *testing.B) {
	const entries = 64
	val := benchValue(1024)
	kvs := make([]KV, entries)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Sprintf("spill%05d", i), Val: val}
	}
	b.Run("batch", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(entries * len(val)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.PutBatch(kvs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("puts", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(entries * len(val)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, kv := range kvs {
				if err := s.Put(kv.Key, kv.Val); err != nil {
					b.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
