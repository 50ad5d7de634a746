// Package store is the persistent crawl store: a durable, append-only
// key/value log that the crawl stack writes its replay database,
// checkpoints, done-records and session records through, so a budgeted crawl
// can stop and resume and a fleet can survive a process restart (the BUbiNG
// discipline of persisting the frontier/workbench, applied to this
// reproduction's replay-database design).
//
// # On-disk format
//
// A store is a directory of numbered segment files, 00000001.seg,
// 00000002.seg, …, each an append-only sequence of records:
//
//	uint32 keyLen | uint32 valLen | uint32 crc32(IEEE, key ‖ val) | key | val
//
// (little-endian header, 12 bytes). Records are never rewritten in place:
// a Put of an existing key appends a fresh record, and the in-memory index
// — key → (segment, offset, length), rebuilt by scanning the segments in
// order on Open — always points at the newest copy. AppendValue reads the
// value back from its segment into the caller's buffer, so resident memory
// stays proportional to the key set, not the stored bytes, and a reader that
// reuses its buffer allocates nothing per read.
//
// Beside the index the store keeps its keys in order: a sorted run plus the
// keys that arrived since the last listing, which the next Keys, Count or
// Snapshot sorts and merges in. A key is never deleted, so the run only
// grows, and a listing costs two binary searches plus its matches — not a
// walk over every key of every namespace sharing the store.
//
// A group commit (PutBatch) appends many entries under one header and one
// CRC region, using keyLen == 0 as the batch sentinel — unreachable in
// plain records, since Put rejects empty keys (and pre-batch builds read a
// zero keyLen as corruption, so old logs never contain it):
//
//	uint32 0 | uint32 payloadLen | uint32 crc32(IEEE, payload) | payload
//	payload: uvarint count, then per entry:
//	         uvarint keyLen | uvarint valLen | key | val
//
// # Snapshots
//
// Superseded records are garbage until Snapshot() compacts the store: it
// writes every live entry into one fresh segment (in sorted key order),
// syncs it, and deletes the older segments. Close() compacts automatically
// when more than half of the stored bytes are garbage.
//
// # Crash model
//
// Put appends to an in-process write buffer (AppendValue serves unflushed
// tail records straight from it, so reads never force a flush). Sync,
// PutBatch and a buffer grown past 64 KB hand the buffer to the OS in one
// write; only Snapshot fsyncs. A record Sync has returned for therefore
// survives a crash of the process, whose written bytes the kernel keeps,
// but not an OS crash or a power loss, which can lose or tear anything
// written since the last Snapshot. The crawl layer syncs at every
// checkpoint. A crash leaves the newest segment cut at any byte past its
// last synced size, or — mid-Snapshot — the old segments beside a cut
// snapshot segment, or the whole snapshot beside the old segments it had
// not yet deleted; Open reads each such state back to its last complete
// record.
//
// # Corruption recovery
//
// Open never trusts a segment: a record whose header is implausible, whose
// CRC does not match, or which runs past end-of-file ends the scan of that
// segment at the last good record. A damaged tail segment is truncated back
// to its last good byte; damage is reported through Recovery() rather than
// by failing Open, so a crawl resumes from the last durable checkpoint
// instead of refusing to start. New writes always go to a fresh segment,
// which Close deletes again when nothing was written to it.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Backend is the byte-level durable map the crawl layers plug into
// (fetch.Replay's durable side, checkpoint sinks, session records). *Store
// implements it; Prefixed scopes one store into independent namespaces.
type Backend interface {
	// Put durably records key → val (last write wins).
	Put(key string, val []byte) error
	// AppendValue appends the newest value recorded for key to dst and
	// returns the extended slice; it allocates only when dst lacks the
	// capacity. A caller reading into a reused buffer owns what it reads
	// (the backend keeps no reference), and a nil dst gets a fresh copy. On
	// a miss dst comes back unchanged with false.
	AppendValue(dst []byte, key string) ([]byte, bool)
	// Keys lists, in sorted order, every live key with the prefix.
	Keys(prefix string) []string
	// Count is len(Keys(prefix)) without building the list.
	Count(prefix string) int
	// Sync flushes buffered writes to the OS.
	Sync() error
}

// KV is one entry of a PutBatch group commit.
type KV struct {
	Key string
	Val []byte
}

const (
	recHeaderLen = 12
	maxKeyLen    = 1 << 20 // sanity bound: larger lengths mean corruption
	maxValLen    = 1 << 30
	segSuffix    = ".seg"
	// flushAt bounds the in-process write buffer: a Put or PutBatch that
	// grows it past this point flushes to the file before returning.
	flushAt = 1 << 16
)

// ErrLocked matches (via errors.Is) the failure of Open to acquire a store
// directory's writer lock: another Store — in this process or another one —
// already owns the directory. Callers that multiplex a store (the crawld
// daemon) test for it to turn a startup failure into an actionable message
// instead of a bare I/O error.
var ErrLocked = errors.New("store: directory locked by another writer")

// LockedError is the typed form of a writer-lock conflict: it names the
// contested directory and carries the hint a caller should surface. It
// unwraps to both ErrLocked and the underlying flock error.
type LockedError struct {
	// Dir is the store directory whose LOCK file is held elsewhere.
	Dir string
	// Err is the underlying lock-acquisition error (e.g. EWOULDBLOCK).
	Err error
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("store: %s is already open for writing by another process or store handle "+
		"(flock on %s held): close the other crawl or daemon using this store, "+
		"share its open handle instead of re-opening the path, or point this one at a different directory: %v",
		e.Dir, filepath.Join(e.Dir, "LOCK"), e.Err)
}

func (e *LockedError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrLocked) succeed for any LockedError.
func (e *LockedError) Is(target error) bool { return target == ErrLocked }

// Recovery reports damage Open found and healed.
type Recovery struct {
	// Segment is the damaged file's name.
	Segment string
	// DroppedBytes is how much of it was unreadable and discarded.
	DroppedBytes int64
	// Truncated reports whether the file was cut back to its last good
	// record (tail damage) as opposed to merely skipped past.
	Truncated bool
}

// loc addresses one live record's value.
type loc struct {
	seg  int // index into s.segs
	off  int64
	vlen int
}

// segment is one on-disk log file.
type segment struct {
	name string
	f    *os.File
	size int64
}

// Store is a durable key/value log (see the package documentation for the
// format). It is safe for concurrent use: a fleet's crawls share one Store.
type Store struct {
	mu   sync.Mutex
	dir  string
	segs []segment
	// active writer state (always the last element of segs). wbuf holds
	// the active segment's unflushed tail: writes append whole records to
	// it (a record never straddles the flush boundary), Get serves
	// unflushed records from it, and flushLocked writes it out in one
	// syscall. The invariant len(wbuf) == active.size - flushedOff holds
	// between operations.
	wbuf       []byte
	flushedOff int64 // bytes of the active segment physically in the file
	index      map[string]loc
	// keys and fresh together hold every key of index exactly once, as the
	// string the map was first given (16 bytes a key on top of the index):
	// keys ascending, fresh in arrival order until orderLocked merges it in.
	keys       []string
	fresh      []string
	liveBytes  int64 // record bytes reachable through the index
	totalBytes int64 // record bytes across all segments (live + garbage)
	recovered  []Recovery
	lock       *os.File // flock-held writer lock (LOCK file)
	closed     bool
	keyBuf     []byte // a namespaced read's joined key (appendJoined)
}

// Open opens (creating if needed) the store directory, rebuilds the index
// from the segments, heals any corruption (see Recovery), and starts a
// fresh active segment for new writes.
//
// A directory has exactly one writer: Open takes an advisory flock on a
// LOCK file inside it and fails immediately when another process (or
// another Store in this process) holds it. The OS releases the lock when a
// crashed process dies, so recovery never needs manual unlocking.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, &LockedError{Dir: dir, Err: err}
	}
	names, err := segmentNames(dir)
	if err != nil {
		unlockFile(lock)
		lock.Close()
		return nil, err
	}
	s := &Store{dir: dir, index: make(map[string]loc), lock: lock}
	for i, name := range names {
		if err := s.scanSegment(name, i == len(names)-1); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if err := s.startActive(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segmentNames lists the directory's segment files in log order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded numbering makes this log order
	return names, nil
}

// scanSegment reads one segment into the index, healing damage. tail marks
// the log's last segment, the only one whose damage is physically
// truncated away (see the package doc).
func (s *Store) scanSegment(name string, tail bool) error {
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	segIdx := len(s.segs)
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [recHeaderLen]byte
	// key and val are read into reused scratch: a value is only checksummed
	// here (the index keeps its location), so the scan allocates per key, not
	// per stored byte.
	key := make([]byte, 0, 256)
	var val []byte
	for off < size {
		good := true
		var klen, vlen uint32
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			good = false
		} else {
			klen = binary.LittleEndian.Uint32(hdr[0:4])
			vlen = binary.LittleEndian.Uint32(hdr[4:8])
			if klen > maxKeyLen || vlen > maxValLen ||
				off+recHeaderLen+int64(klen)+int64(vlen) > size {
				good = false
			}
		}
		if good && klen == 0 {
			// keyLen == 0 is the PutBatch sentinel: one CRC-covered payload
			// holding many entries.
			want := binary.LittleEndian.Uint32(hdr[8:12])
			val = resize(val, int(vlen)) // the payload; indexBatch copies its keys out
			if _, err := io.ReadFull(br, val); err != nil {
				good = false
			} else if crc32.ChecksumIEEE(val) != want {
				good = false
			} else if !s.indexBatch(segIdx, off, val) {
				good = false
			} else {
				off += recHeaderLen + int64(vlen)
			}
		} else if good {
			want := binary.LittleEndian.Uint32(hdr[8:12])
			key = resize(key, int(klen))
			val = resize(val, int(vlen))
			if _, err := io.ReadFull(br, key); err != nil {
				good = false
			} else if _, err := io.ReadFull(br, val); err != nil {
				good = false
			} else {
				crc := crc32.ChecksumIEEE(key)
				crc = crc32.Update(crc, crc32.IEEETable, val)
				if crc != want {
					good = false
				} else {
					recLen := recHeaderLen + int64(klen) + int64(vlen)
					s.indexRecord(string(key), loc{seg: segIdx, off: off + recHeaderLen + int64(klen), vlen: int(vlen)}, recLen)
					off += recLen
				}
			}
		}
		if !good {
			// Damage: drop everything from the first bad byte on. The tail
			// segment is physically truncated so the next process sees a
			// clean log; a mid-log segment is only skipped past — its later
			// records are unreachable once the scan loses framing, but the
			// bytes stay on disk for inspection.
			rec := Recovery{Segment: name, DroppedBytes: size - off}
			if tail {
				if err := f.Truncate(off); err == nil {
					rec.Truncated = true
					size = off
				}
			}
			s.recovered = append(s.recovered, rec)
			break
		}
	}
	s.totalBytes += size
	s.segs = append(s.segs, segment{name: name, f: f, size: size})
	return nil
}

// indexBatch parses one batch record's payload (whose record starts at
// byte off of segment segIdx) into the index. The whole payload is
// validated before anything is indexed, so a malformed batch is rejected
// in one piece — reported false and treated like a CRC mismatch.
func (s *Store) indexBatch(segIdx int, off int64, payload []byte) bool {
	type entry struct {
		key    string
		valOff int64
		vlen   int
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)) {
		return false
	}
	pos := n
	entries := make([]entry, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return false
		}
		pos += n
		vlen, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return false
		}
		pos += n
		if klen == 0 || klen > maxKeyLen || vlen > maxValLen ||
			int64(pos)+int64(klen)+int64(vlen) > int64(len(payload)) {
			return false
		}
		key := string(payload[pos : pos+int(klen)])
		pos += int(klen)
		entries = append(entries, entry{key: key, valOff: off + recHeaderLen + int64(pos), vlen: int(vlen)})
		pos += int(vlen)
	}
	if pos != len(payload) {
		return false
	}
	for _, e := range entries {
		s.indexRecord(e.key, loc{seg: segIdx, off: e.valOff, vlen: e.vlen},
			recHeaderLen+int64(len(e.key))+int64(e.vlen))
	}
	return true
}

// indexRecord points the index at a newly scanned or written record,
// keeping the live/garbage accounting straight. Batch entries are charged
// the plain-record overhead (their actual varint framing is smaller), so
// the garbage accounting stays one formula; GarbageRatio clamps the
// resulting small overestimate of live bytes.
func (s *Store) indexRecord(key string, l loc, recLen int64) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= recHeaderLen + int64(len(key)) + int64(old.vlen)
	} else {
		s.fresh = append(s.fresh, key)
	}
	s.index[key] = l
	s.liveBytes += recLen
}

// startActive opens a fresh segment for writes, numbered after the last.
func (s *Store) startActive() error {
	next := 1
	if n := len(s.segs); n > 0 {
		if _, err := fmt.Sscanf(s.segs[n-1].name, "%d", &next); err == nil {
			next++
		} else {
			next = n + 1
		}
	}
	name := fmt.Sprintf("%08d%s", next, segSuffix)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, segment{name: name, f: f})
	s.wbuf = s.wbuf[:0]
	s.flushedOff = 0
	return nil
}

// appendRecord appends one plain record for key/val to the write buffer
// and returns its length. The CRC is computed over the buffered key‖val
// bytes, so the write path allocates nothing.
func (s *Store) appendRecord(key string, val []byte) int64 {
	start := len(s.wbuf)
	s.wbuf = append(s.wbuf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	s.wbuf = append(s.wbuf, key...)
	s.wbuf = append(s.wbuf, val...)
	rec := s.wbuf[start:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(rec[recHeaderLen:]))
	return int64(len(rec))
}

// Put implements Backend.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if len(key) == 0 || len(key) > maxKeyLen || len(val) > maxValLen {
		return fmt.Errorf("store: key/value size out of range (key %d, val %d)", len(key), len(val))
	}
	active := &s.segs[len(s.segs)-1]
	recLen := s.appendRecord(key, val)
	s.indexRecord(key, loc{seg: len(s.segs) - 1, off: active.size + recHeaderLen + int64(len(key)), vlen: len(val)}, recLen)
	active.size += recLen
	s.totalBytes += recLen
	if len(s.wbuf) >= flushAt {
		return s.flushLocked()
	}
	return nil
}

// PutBatch group-commits many entries: the whole batch is framed as one
// record (single header, one CRC over the payload), appended to the write
// buffer in one piece, and flushed once. Entries are individually indexed
// and readable immediately.
func (s *Store) PutBatch(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	total := int64(binary.MaxVarintLen64)
	for _, kv := range kvs {
		if len(kv.Key) == 0 || len(kv.Key) > maxKeyLen || len(kv.Val) > maxValLen {
			return fmt.Errorf("store: key/value size out of range (key %d, val %d)", len(kv.Key), len(kv.Val))
		}
		total += 2*binary.MaxVarintLen64 + int64(len(kv.Key)) + int64(len(kv.Val))
	}
	if total > maxValLen {
		return fmt.Errorf("store: batch payload too large (%d bytes)", total)
	}
	active := &s.segs[len(s.segs)-1]
	start := len(s.wbuf)
	s.wbuf = append(s.wbuf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	s.wbuf = binary.AppendUvarint(s.wbuf, uint64(len(kvs)))
	for _, kv := range kvs {
		s.wbuf = binary.AppendUvarint(s.wbuf, uint64(len(kv.Key)))
		s.wbuf = binary.AppendUvarint(s.wbuf, uint64(len(kv.Val)))
		s.wbuf = append(s.wbuf, kv.Key...)
		valOff := int64(len(s.wbuf) - start) // offset of val within the record
		s.wbuf = append(s.wbuf, kv.Val...)
		s.indexRecord(kv.Key, loc{seg: len(s.segs) - 1, off: active.size + valOff, vlen: len(kv.Val)},
			recHeaderLen+int64(len(kv.Key))+int64(len(kv.Val)))
	}
	rec := s.wbuf[start:]
	payloadLen := len(rec) - recHeaderLen
	binary.LittleEndian.PutUint32(rec[4:8], uint32(payloadLen))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(rec[recHeaderLen:]))
	recLen := int64(len(rec))
	active.size += recLen
	s.totalBytes += recLen
	return s.flushLocked()
}

// AppendValue implements Backend.
func (s *Store) AppendValue(dst []byte, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[key]
	return s.valueLocked(dst, l, ok)
}

// appendJoined is AppendValue of the key prefix+key, joined in the store's
// own scratch under its lock instead of in a string: a namespaced read (see
// Prefixed) builds no key.
func (s *Store) appendJoined(dst []byte, prefix, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyBuf = append(append(s.keyBuf[:0], prefix...), key...)
	l, ok := s.index[string(s.keyBuf)]
	return s.valueLocked(dst, l, ok)
}

// valueLocked appends the value of the index entry l (present when ok).
func (s *Store) valueLocked(dst []byte, l loc, ok bool) ([]byte, bool) {
	if !ok || s.closed {
		return dst, false
	}
	out, err := s.appendLocked(dst, l)
	return out, err == nil
}

// Get returns a fresh copy of the newest value recorded for key.
//
// Deprecated: use AppendValue; removed at the benchmark re-base (the frozen
// benchmark/ calls it).
func (s *Store) Get(key string) ([]byte, bool) { return s.AppendValue(nil, key) }

// appendLocked appends the value l addresses to dst. A record still sitting
// in the write buffer is served straight from it — read-your-writes without
// forcing a flush. Records are buffered whole (flush drains the buffer
// completely), so a record is either entirely in wbuf (value offset at or
// past flushedOff) or entirely in the file. On error dst comes back at its
// original length.
func (s *Store) appendLocked(dst []byte, l loc) ([]byte, error) {
	n := len(dst)
	dst = slices.Grow(dst, l.vlen)[:n+l.vlen]
	if l.seg == len(s.segs)-1 && l.off >= s.flushedOff {
		start := l.off - s.flushedOff
		copy(dst[n:], s.wbuf[start:start+int64(l.vlen)])
		return dst, nil
	}
	if _, err := s.segs[l.seg].f.ReadAt(dst[n:], l.off); err != nil {
		return dst[:n], err
	}
	return dst, nil
}

// orderLocked merges the keys that arrived since the last call into the
// sorted run, in place: the arrivals are sorted, the run grows by their
// number, and from the largest arrival down each one is located by binary
// search and the run's keys behind it move up as one block. Nothing in front
// of the smallest arrival moves, and there is no second buffer.
func (s *Store) orderLocked() {
	if len(s.fresh) == 0 {
		return
	}
	slices.Sort(s.fresh)
	if len(s.keys) == 0 { // the first listing after Open: the arrivals are the run
		s.keys, s.fresh = s.fresh, s.keys
		return
	}
	end := len(s.keys) // keys[:end] is the part of the run not yet moved
	s.keys = append(s.keys, s.fresh...)
	for j := len(s.fresh) - 1; j >= 0; j-- {
		at, _ := slices.BinarySearch(s.keys[:end], s.fresh[j])
		copy(s.keys[at+j+1:], s.keys[at:end]) // j+1 arrivals sort in front of it
		s.keys[at+j] = s.fresh[j]
		end = at
	}
	s.fresh = s.fresh[:0]
}

// runLocked returns the keys of the sorted run that start with prefix: a
// view of s.keys, valid while s.mu is held.
func (s *Store) runLocked(prefix string) []string {
	lo, _ := slices.BinarySearch(s.keys, prefix)
	// From lo on every key is ≥ prefix, so the keys carrying it come first.
	n := sort.Search(len(s.keys)-lo, func(i int) bool { return !strings.HasPrefix(s.keys[lo+i], prefix) })
	return s.keys[lo : lo+n]
}

// Keys implements Backend.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.orderLocked()
	return append([]string(nil), s.runLocked(prefix)...)
}

// countMergeAt is how many unmerged arrivals Count checks one by one before
// it merges them in: a merge moves every key of the run behind the smallest
// arrival, which a count after every few Puts should not pay each time.
const countMergeAt = 64

// Count implements Backend.
func (s *Store) Count(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fresh) > countMergeAt {
		s.orderLocked()
	}
	n := len(s.runLocked(prefix))
	for _, k := range s.fresh {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// GarbageRatio reports the fraction of stored bytes no longer reachable
// through the index (superseded records awaiting Snapshot).
func (s *Store) GarbageRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.totalBytes == 0 || s.liveBytes >= s.totalBytes {
		return 0
	}
	return float64(s.totalBytes-s.liveBytes) / float64(s.totalBytes)
}

// Sync implements Backend: buffered writes become visible to the OS, and so
// to an Open after the process crashes (not after the OS does: see the
// package doc's crash model).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.wbuf) > 0 {
		if _, err := s.segs[len(s.segs)-1].f.Write(s.wbuf); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.wbuf = s.wbuf[:0]
	}
	s.flushedOff = s.segs[len(s.segs)-1].size
	return nil
}

// Snapshot compacts the store: every live entry is rewritten into one fresh
// segment (sorted key order), the segment is fsynced, and the older
// segments are deleted. Afterwards GarbageRatio is 0 and Open rebuilds the
// index from the single snapshot segment plus whatever is appended later.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.snapshotLocked()
}

// snapshotLocked is Snapshot for a caller that holds s.mu on an open store.
// A failure part-way leaves the old segments and the index in force; the
// records already copied are duplicates a later Open replays harmlessly.
func (s *Store) snapshotLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	old := s.segs
	// The snapshot segment is numbered after the current active one, so log
	// order still replays it last.
	s.segs = append([]segment(nil), s.segs...)
	if err := s.startActive(); err != nil {
		s.segs = old
		return err
	}
	s.orderLocked()
	newIdx := len(s.segs) - 1
	active := &s.segs[newIdx]
	var written int64
	newLocs := make(map[string]loc, len(s.keys))
	// Every value passes through one scratch, which appendRecord copies out
	// at once: compaction allocates per key, not per stored byte.
	var val []byte
	for _, k := range s.keys {
		var err error
		if val, err = s.appendLocked(val[:0], s.index[k]); err != nil {
			return fmt.Errorf("store: snapshot read: %w", err)
		}
		recLen := s.appendRecord(k, val)
		newLocs[k] = loc{seg: newIdx, off: active.size + recHeaderLen + int64(len(k)), vlen: len(val)}
		active.size += recLen
		written += recLen
		if len(s.wbuf) >= flushAt {
			if err := s.flushLocked(); err != nil {
				return err
			}
		}
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Drop the superseded segments and renumber the index onto the snapshot.
	for _, seg := range old {
		seg.f.Close()
		os.Remove(filepath.Join(s.dir, seg.name))
	}
	s.segs = []segment{*active}
	for k, l := range newLocs {
		l.seg = 0
		newLocs[k] = l
	}
	s.index = newLocs
	s.liveBytes = written
	s.totalBytes = written
	s.flushedOff = active.size
	return nil
}

// Close flushes, compacts when more than half the stored bytes are garbage,
// and releases the file handles and the writer lock. It releases them
// whatever fails on the way — a directory must never stay locked behind a
// failed compaction — and returns the first error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.totalBytes > 0 && float64(s.totalBytes-s.liveBytes) > 0.5*float64(s.totalBytes) {
		err = s.snapshotLocked()
	}
	if ferr := s.flushLocked(); err == nil {
		err = ferr
	}
	// An active segment nothing was written to goes, so re-opening a store
	// leaves no empty file behind for every later Open to hold open.
	if active := &s.segs[len(s.segs)-1]; active.size == 0 {
		active.f.Close()
		active.f = nil
		os.Remove(filepath.Join(s.dir, active.name))
	}
	s.closeFiles()
	s.closed = true
	return err
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
	if s.lock != nil {
		unlockFile(s.lock)
		s.lock.Close()
		s.lock = nil
	}
}

var _ Backend = (*Store)(nil)

// Prefixed scopes a Backend into a namespace: every key is transparently
// prefixed, so independent layers (per-site replay databases, checkpoints,
// session records) share one physical store without colliding. A namespace
// of a namespace is one namespace under the joined prefix, and a read
// through one over a *Store joins its key there, in no new string.
func Prefixed(b Backend, prefix string) Backend {
	if pb, ok := b.(*prefixed); ok {
		return &prefixed{b: pb.b, p: pb.p + prefix}
	}
	return &prefixed{b: b, p: prefix}
}

type prefixed struct {
	b Backend
	p string
}

func (pb *prefixed) Put(key string, val []byte) error { return pb.b.Put(pb.p+key, val) }
func (pb *prefixed) Sync() error                      { return pb.b.Sync() }
func (pb *prefixed) AppendValue(dst []byte, key string) ([]byte, bool) {
	if s, ok := pb.b.(*Store); ok {
		return s.appendJoined(dst, pb.p, key)
	}
	return pb.b.AppendValue(dst, pb.p+key)
}
func (pb *prefixed) Count(prefix string) int { return pb.b.Count(pb.p + prefix) }
func (pb *prefixed) Keys(prefix string) []string {
	full := pb.b.Keys(pb.p + prefix)
	out := make([]string, len(full))
	for i, k := range full {
		out[i] = strings.TrimPrefix(k, pb.p)
	}
	return out
}

func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
