package codec_test

// Regression tests for corrupt length prefixes that used to panic instead
// of returning ErrCorrupt: a string length near 2^63 overflowed the
// Reader.take bounds check (r.off+n wrapped negative), a delta whose
// prefix+suffix lengths wrap uint64 slipped past the combined exceed-base
// guard, and an unbounded element count drove make with a multi-GB (or
// negative) cap in the per-package counted-sequence decoders. All three
// are the never-panic safety property the fuzz targets enforce; these
// pin the exact crafted inputs so they run as plain tests too.

import (
	"encoding/binary"
	"errors"
	"testing"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
)

// corruptLenBlob returns a well-framed blob of the given kind whose first
// payload field is a huge uvarint length prefix.
func corruptLenBlob(kind byte, n uint64) []byte {
	raw := codec.AppendHeader(nil, kind)
	return binary.AppendUvarint(raw, n)
}

func TestReaderTakeHugeLength(t *testing.T) {
	for _, n := range []uint64{1<<63 - 1, 1 << 62, 1<<64 - 1} {
		blob := corruptLenBlob(codec.KindResult, n)
		if _, err := core.DecodeResult(blob); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("DecodeResult(len=%d): err=%v, want ErrCorrupt", n, err)
		}
		r := codec.NewReader(blob[3:])
		if s := r.String(); s != "" {
			t.Fatalf("Reader.String(len=%d) = %q, want empty", n, s)
		}
		if err := r.Close(); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("Reader.Close(len=%d): err=%v, want ErrCorrupt", n, err)
		}
	}
}

func TestApplyDeltaOverflowingPrefixSuffix(t *testing.T) {
	base := []byte("0123")
	// prefix+suffix wrap uint64: p=2^64-1, s=2 sums to 1, which a combined
	// p+s > len(base) check accepts before base[:p] panics.
	delta := binary.AppendUvarint(nil, uint64(len(base)))
	delta = binary.AppendUvarint(delta, 1<<64-1)
	delta = binary.AppendUvarint(delta, 2)
	delta = binary.AppendUvarint(delta, 0)
	if _, err := codec.ApplyDelta(base, delta); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("ApplyDelta: err=%v, want ErrCorrupt", err)
	}
	// Same wrap with the roles reversed.
	delta = binary.AppendUvarint(nil, uint64(len(base)))
	delta = binary.AppendUvarint(delta, 2)
	delta = binary.AppendUvarint(delta, 1<<64-1)
	delta = binary.AppendUvarint(delta, 0)
	if _, err := codec.ApplyDelta(base, delta); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("ApplyDelta (suffix wrap): err=%v, want ErrCorrupt", err)
	}
}

func TestCheckpointHugeElementCount(t *testing.T) {
	cp := core.Checkpoint{Requests: 7}
	blob := core.AppendCheckpoint(nil, &cp)
	// The retired partition-snapshot list encodes as a trailing 0 byte;
	// replace it with a count far beyond the remaining payload.
	if blob[len(blob)-1] != 0 {
		t.Fatalf("expected trailing nil-count byte, got 0x%02x", blob[len(blob)-1])
	}
	for _, n := range []uint64{1<<40 + 1, 1<<64 - 1} {
		mut := binary.AppendUvarint(append([]byte(nil), blob[:len(blob)-1]...), n)
		if _, err := core.DecodeCheckpoint(mut); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("DecodeCheckpoint(count=%d): err=%v, want ErrCorrupt", n, err)
		}
	}
}

func TestReaderSliceLenBounds(t *testing.T) {
	// Count beyond the remaining payload fails rather than allocating.
	r := codec.NewReader(binary.AppendUvarint(nil, 100+1))
	if n, ok := r.SliceLen(); ok {
		t.Fatalf("SliceLen accepted count %d with empty remainder", n)
	}
	// Count whose int conversion goes negative fails rather than driving a
	// negative make cap.
	r = codec.NewReader(binary.AppendUvarint(nil, 1<<63+1))
	if n, ok := r.SliceLen(); ok {
		t.Fatalf("SliceLen accepted wrapped count %d", n)
	}
	// Nil and a plausible count still decode.
	r = codec.NewReader([]byte{0})
	if _, ok := r.SliceLen(); ok {
		t.Fatal("SliceLen: nil prefix reported ok")
	}
	r = codec.NewReader(append(binary.AppendUvarint(nil, 2+1), 'a', 'b'))
	if n, ok := r.SliceLen(); !ok || n != 2 {
		t.Fatalf("SliceLen = %d, %v; want 2, true", n, ok)
	}
}
