package store

// FuzzCrashStates is the store's crash table. The store is an append-only
// log whose Sync hands its write buffer to the OS, so every state a process
// crash can leave is built from files alone: an append step leaves the
// newest segment cut anywhere between two observed sizes, and a snapshot
// step leaves the old segments beside any prefix of the snapshot segment,
// or the whole snapshot beside the old segments it had not yet deleted. A
// fuzz input is a short sequence of Put, PutBatch, Sync, Snapshot and Close
// plus reopen over four keys; the directory is copied after each op, each
// step's states are cut at every record boundary and inside every field of
// every record (length header, CRC, key, value), and each state must open
// to exactly the last-write-wins contents of the complete records before
// the cut.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Crash-table ops: an input byte's low three bits pick the op, the rest is
// its argument.
const (
	opPut      = iota // key arg&3, a value of 2 + 3·(arg>>2) bytes
	opPutEmpty        // key arg&3, an empty value
	opBatch           // 1 + arg%3 entries from key arg/3 on
	opSync
	opSnapshot
	opReopen // Close, then Open
)

func op(kind, arg byte) byte { return kind | arg<<3 }

// crashCorpus is the seed corpus: append steps (plain records, a batch, an
// empty value, a 64 KB auto-flush left out for size), snapshot steps by
// Snapshot and by a compacting Close, and reopen cycles with nothing
// written.
var crashCorpus = [][]byte{
	{op(opPut, 0), op(opPut, 1|4), op(opSync, 0), op(opPut, 0|8), op(opBatch, 2), op(opPutEmpty, 3), op(opSync, 0), op(opPut, 2|28)},
	{op(opPut, 0), op(opPut, 1), op(opPut, 0|4), op(opSync, 0), op(opPut, 2|8), op(opSnapshot, 0), op(opPut, 3), op(opSync, 0)},
	{op(opPut, 0|12), op(opPut, 0), op(opPut, 0|4), op(opPut, 0|8), op(opReopen, 0), op(opPut, 1), op(opSync, 0)},
	{op(opReopen, 0), op(opReopen, 0), op(opPut, 3|4), op(opReopen, 0), op(opSnapshot, 0), op(opReopen, 0)},
	{op(opBatch, 1), op(opBatch, 5), op(opSnapshot, 0), op(opBatch, 8), op(opPutEmpty, 0), op(opReopen, 0), op(opPut, 1|16), op(opSnapshot, 0)},
	{op(opPut, 1|28), op(opBatch, 4), op(opSync, 0), op(opPut, 1), op(opPut, 1|4), op(opPut, 2), op(opReopen, 0), op(opBatch, 7), op(opSnapshot, 0), op(opPutEmpty, 2), op(opReopen, 0), op(opSync, 0)},
}

func FuzzCrashStates(f *testing.F) {
	for _, ops := range crashCorpus {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkCrashStates(t, ops[:min(len(ops), 12)])
	})
}

// dirFiles is a copy of a store directory's segments, by name.
type dirFiles map[string][]byte

func readSegments(t *testing.T, dir string) dirFiles {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := dirFiles{}
	for _, name := range names {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// with is files with name set to data (nil data: name removed).
func (files dirFiles) with(name string, data []byte) dirFiles {
	out := maps.Clone(files)
	if data == nil {
		delete(out, name)
	} else {
		out[name] = data
	}
	return out
}

// crashTable collects the distinct crash states of one op sequence.
type crashTable struct {
	seen   map[string]bool
	states []dirFiles
}

func (c *crashTable) add(files dirFiles) {
	var key strings.Builder
	for _, name := range slices.Sorted(maps.Keys(files)) {
		fmt.Fprintf(&key, "%s:%q;", name, files[name])
	}
	if !c.seen[key.String()] {
		c.seen[key.String()] = true
		c.states = append(c.states, files)
	}
}

// appendStep adds base with segment name cut at every point of data past
// from: each record boundary and one byte inside each field of each record.
func (c *crashTable) appendStep(base dirFiles, name string, data []byte, from int) {
	for _, at := range cutPoints(data, from) {
		c.add(base.with(name, data[:at:at]))
	}
}

// snapshotStep adds the states a Snapshot leaves on its way from old (whose
// active segment its flush has completed) to the single segment snap holds:
// the snapshot cut anywhere beside every old segment, then whole beside the
// old segments not yet deleted, in log order.
func (c *crashTable) snapshotStep(old dirFiles, snapName string, snap []byte) {
	c.appendStep(old, snapName, snap, 0)
	files := old.with(snapName, snap)
	for _, name := range slices.Sorted(maps.Keys(old)) {
		files = files.with(name, nil)
		c.add(files)
	}
}

// record is one record of a segment as the format defines it; the crash
// table's oracle, independent of scanSegment (states are cut, never
// flipped, so it checks no CRC).
type record struct {
	off, klen, vlen int
	kvs             []KV // a plain record's entry, or a batch's
}

// parseRecords reads data's complete records and returns them with the
// offset where the complete ones end.
func parseRecords(data []byte) ([]record, int) {
	var recs []record
	off := 0
	for off+recHeaderLen <= len(data) {
		klen := int(binary.LittleEndian.Uint32(data[off:]))
		vlen := int(binary.LittleEndian.Uint32(data[off+4:]))
		end := off + recHeaderLen + klen + vlen
		if end > len(data) {
			break
		}
		r := record{off: off, klen: klen, vlen: vlen}
		body := data[off+recHeaderLen : end]
		if klen > 0 {
			r.kvs = []KV{{Key: string(body[:klen]), Val: body[klen:]}}
		} else {
			count, n := binary.Uvarint(body)
			for range count {
				kl, m := binary.Uvarint(body[n:])
				n += m
				vl, m := binary.Uvarint(body[n:])
				n += m
				r.kvs = append(r.kvs, KV{Key: string(body[n : n+int(kl)]), Val: body[n+int(kl) : n+int(kl)+int(vl)]})
				n += int(kl + vl)
			}
		}
		recs = append(recs, r)
		off = end
	}
	return recs, off
}

// cutPoints lists where a crash may cut data past from: every record
// boundary, and inside each record its length header (bytes 0–7), its CRC
// (8–11), its key and its value — for a batch, the payload's middle and its
// last byte.
func cutPoints(data []byte, from int) []int {
	recs, _ := parseRecords(data)
	cuts := []int{from}
	for _, r := range recs {
		if r.off < from {
			continue
		}
		key, val := r.off+recHeaderLen, r.off+recHeaderLen+r.klen
		end := val + r.vlen
		cuts = append(cuts, r.off+4, r.off+10)
		if r.klen == 0 {
			cuts = append(cuts, val+r.vlen/2, end-1)
		} else {
			cuts = append(cuts, key+r.klen/2, val+r.vlen/2)
		}
		cuts = append(cuts, end)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// crashWant is what Open must make of a crash state: the last-write-wins
// contents of its complete records in log order, and the bytes past them
// Recovery reports.
func crashWant(files dirFiles) (map[string]string, []Recovery) {
	want := map[string]string{}
	var rec []Recovery
	names := slices.Sorted(maps.Keys(files))
	for i, name := range names {
		recs, end := parseRecords(files[name])
		for _, r := range recs {
			for _, kv := range r.kvs {
				want[kv.Key] = string(kv.Val)
			}
		}
		if dropped := len(files[name]) - end; dropped > 0 {
			rec = append(rec, Recovery{Segment: name, DroppedBytes: int64(dropped), Truncated: i == len(names)-1})
		}
	}
	return want, rec
}

// crashOps runs ops on a store in dir, checking each against a model, and
// returns the crash states the run can leave.
func crashOps(t *testing.T, dir string, ops []byte) *crashTable {
	c := &crashTable{seen: map[string]bool{}}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	model := map[string]string{}
	c.add(readSegments(t, dir))
	for i, b := range ops {
		kind, arg := b&7, b>>3
		if kind > opReopen {
			kind = opPut
		}
		key := fmt.Sprintf("k%d", arg&3)
		value := func(j, n int) []byte { return bytes.Repeat([]byte{byte('a' + (i+j)%26)}, n) }
		pre := readSegments(t, dir)
		// What a flush would write: the segment's bytes plus the write
		// buffer, read here because a Snapshot deletes the segment after.
		s.mu.Lock()
		active := s.segs[len(s.segs)-1].name
		flushed := append(slices.Clip(pre[active]), s.wbuf...)
		s.mu.Unlock()
		switch kind {
		case opPut:
			v := value(0, 2+3*int(arg>>2))
			err = s.Put(key, v)
			model[key] = string(v)
		case opPutEmpty:
			err = s.Put(key, nil)
			model[key] = ""
		case opBatch:
			var kvs []KV
			for j := range 1 + int(arg)%3 {
				kv := KV{Key: fmt.Sprintf("k%d", (int(arg)/3+j)&3), Val: value(j, 3+j)}
				kvs = append(kvs, kv)
				model[kv.Key] = string(kv.Val)
			}
			err = s.PutBatch(kvs)
		case opSync:
			err = s.Sync()
		case opSnapshot:
			err = s.Snapshot()
		case opReopen:
			if err = s.Close(); err == nil {
				c.step(pre, readSegments(t, dir), active, flushed)
				s, err = Open(dir)
			}
		}
		if err != nil {
			t.Fatalf("op %d (%#x): %v", i, b, err)
		}
		post := readSegments(t, dir)
		if kind != opReopen {
			c.step(pre, post, active, flushed)
		}
		c.add(post)
		// Every op but Put flushes: the segments then hold what the ops wrote.
		if got, _ := crashWant(post); kind > opPutEmpty && !reflect.DeepEqual(got, model) {
			t.Fatalf("op %d (%#x): the segments hold %q after a flush, the ops wrote %q", i, b, got, model)
		}
	}
	return c
}

// step adds the states an op leaves on its way from pre to after: the
// active segment cut anywhere its flush wrote (flushed, unless after shows
// what it wrote), then, where a compaction wrote a new segment, that
// snapshot's states, and finally after itself.
func (c *crashTable) step(pre, after dirFiles, active string, flushed []byte) {
	if data, kept := after[active]; kept {
		flushed = data
	}
	c.appendStep(pre, active, flushed, len(pre[active]))
	old := pre.with(active, flushed)
	for name, data := range after {
		if _, ok := old[name]; !ok {
			c.snapshotStep(old, name, data)
		}
	}
	c.add(after)
}

// checkCrashStates runs ops and opens every crash state they can leave.
func checkCrashStates(t *testing.T, ops []byte) {
	root := t.TempDir()
	c := crashOps(t, filepath.Join(root, "run"), ops)
	for i, files := range c.states {
		dir := filepath.Join(root, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		sizes := map[string]int{}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			sizes[name] = len(data)
		}
		checkCrashState(t, dir, files, fmt.Sprintf("state %d %v", i, sizes))
	}
	t.Logf("%d ops, %d crash states", len(ops), len(c.states))
}

// checkCrashState opens one crash state: the store must hold exactly the
// complete records' contents and report exactly the dropped bytes, open
// again clean to the same contents, and keep a write made after the crash.
func checkCrashState(t *testing.T, dir string, files dirFiles, label string) {
	want, wantRec := crashWant(files)
	reopen := func(step string) *Store {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %s Open: %v", label, step, err)
		}
		return s
	}
	holds := func(s *Store, step string, want map[string]string) {
		if got := s.Keys(""); !slices.Equal(got, slices.Sorted(maps.Keys(want))) {
			t.Fatalf("%s: %s Open lists %q, want %q", label, step, got, slices.Sorted(maps.Keys(want)))
		}
		for k, v := range want {
			if got, ok := s.AppendValue(nil, k); !ok || string(got) != v {
				t.Fatalf("%s: %s Open reads %s = %q, %v; want %q", label, step, k, got, ok, v)
			}
		}
	}
	s := reopen("first")
	holds(s, "first", want)
	if got := s.Recovery(); !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("%s: Recovery = %+v, want %+v", label, got, wantRec)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	s = reopen("second")
	holds(s, "second", want)
	if got := s.Recovery(); got != nil {
		t.Fatalf("%s: the second Open still reports recovery %+v", label, got)
	}
	if err := s.Put("after-crash", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want = maps.Clone(want)
	want["after-crash"] = "kept"
	s = reopen("third")
	defer s.Close()
	holds(s, "third", want)
	if got := s.Recovery(); got != nil {
		t.Fatalf("%s: the Open after a post-crash write reports recovery %+v", label, got)
	}
}

// TestReopenLeavesNoEmptySegments: opening and closing a store without
// writing leaves its segment files as they were, so the descriptors a later
// Open holds do not grow with the number of restarts.
func TestReopenLeavesNoEmptySegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if s, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Fatalf("five open/close cycles with no writes turned segments %v into %v", before, after)
	}
}
