package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"sbcrawl/internal/frontier"
)

// TestPrimitivesRoundTrip drives every append/read pair through the Reader
// and checks the values, the nil/empty distinction, and exact consumption.
func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -7)
	b = AppendInt(b, math.MaxInt32)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat64(b, -3.25)
	b = AppendString(b, "")
	b = AppendString(b, "héllo")
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{})
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendStrings(b, nil)
	b = AppendStrings(b, []string{})
	b = AppendStrings(b, []string{"a", "", "c"})
	b = AppendInts(b, nil)
	b = AppendInts(b, []int{-1, 0, 99})
	b = AppendInt32s(b, []int32{-5, 5})
	b = AppendInt64s(b, []int64{math.MinInt64, math.MaxInt64})

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Varint(); got != -7 {
		t.Fatalf("varint: %d", got)
	}
	if got := r.Int(); got != math.MaxInt32 {
		t.Fatalf("int: %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if got := r.Float64(); got != -3.25 {
		t.Fatalf("float64: %v", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string: %q", got)
	}
	if got := r.ViewString(); got != "héllo" {
		t.Fatalf("string: %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil bytes decoded as %v", got)
	}
	if got := r.Bytes(); got == nil || len(got) != 0 {
		t.Fatalf("empty bytes decoded as %v", got)
	}
	if got := r.View(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", got)
	}
	if got := r.Strings(); got != nil {
		t.Fatalf("nil strings decoded as %v", got)
	}
	if got := r.Strings(); got == nil || len(got) != 0 {
		t.Fatalf("empty strings decoded as %v", got)
	}
	if got := r.ViewStrings(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("strings: %v", got)
	}
	if got := r.Ints(); got != nil {
		t.Fatalf("nil ints decoded as %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{-1, 0, 99}) {
		t.Fatalf("ints: %v", got)
	}
	if got := r.Int32s(); !reflect.DeepEqual(got, []int32{-5, 5}) {
		t.Fatalf("int32s: %v", got)
	}
	if got := r.Int64s(); !reflect.DeepEqual(got, []int64{math.MinInt64, math.MaxInt64}) {
		t.Fatalf("int64s: %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestReaderTrailingBytes: a well-formed blob must be consumed exactly.
func TestReaderTrailingBytes(t *testing.T) {
	b := AppendInt(nil, 1)
	b = append(b, 0xFF)
	r := NewReader(b)
	_ = r.Int()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes not reported: %v", err)
	}
}

// TestReaderStickyError: after a malformed field, subsequent reads return
// zero values and Close reports the error.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated uvarint
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint on corrupt input: %d", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("string after error: %q", got)
	}
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

// TestReaderSliceLenBound: an implausible element count (larger than the
// remaining payload) must fail instead of allocating.
func TestReaderSliceLenBound(t *testing.T) {
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if got := r.Strings(); got != nil {
		t.Fatalf("huge slice len decoded: %d elems", len(got))
	}
	if r.Err() == nil {
		t.Fatal("huge slice len not rejected")
	}
}

// TestHeaderFraming covers the format-tag discriminator and the typed
// version/kind errors.
func TestHeaderFraming(t *testing.T) {
	blob := AppendHeader(nil, KindResponse)
	blob = append(blob, 0xAB)

	payload, err := Header(blob, KindResponse)
	if err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if !bytes.Equal(payload, []byte{0xAB}) {
		t.Fatalf("payload: %v", payload)
	}

	// A gob stream's first byte is a message length, never 0x00.
	if _, err := Header([]byte{0x21, 0xFF, 0x81}, KindResponse); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("gob-era blob: err = %v, want ErrLegacyFormat", err)
	}

	// Unknown version: typed error, errors.Is and errors.As both work.
	_, err = Header([]byte{Tag, 0x7F, KindResponse}, KindResponse)
	if !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unknown version: %v", err)
	}
	var uv *UnknownVersionError
	if !errors.As(err, &uv) || uv.Version != 0x7F {
		t.Fatalf("unknown version not typed: %v", err)
	}

	// Wrong kind: typed error carrying both bytes.
	_, err = Header(AppendHeader(nil, KindEnvelope), KindResponse)
	var wk *WrongKindError
	if !errors.As(err, &wk) || wk.Want != KindResponse || wk.Got != KindEnvelope {
		t.Fatalf("wrong kind not typed: %v", err)
	}

	// Truncation.
	if _, err := Header(nil, KindResponse); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty blob: %v", err)
	}
	if _, err := Header([]byte{Tag, Version1}, KindResponse); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: %v", err)
	}
}

// frontierStates is the round-trip corpus: every frontier kind, with the
// counted-RNG generator positions and the nil/empty cases that DeepEqual
// distinguishes.
func frontierStates() []interface{} {
	return []interface{}{
		frontier.QueueState{Items: []string{"a/1", "a/2"}},
		frontier.QueueState{Items: nil},
		frontier.QueueState{Items: []string{}},
		frontier.StackState{Items: []string{"top", "bottom"}},
		frontier.RandomState{Items: []string{"x"}, Seed: 42, Draws: 17},
		frontier.RandomState{Items: nil, Seed: -1, Draws: 0},
		frontier.PriorityState{
			Entries: []frontier.PriorityEntry{
				{URL: "u1", Score: 0.5, Seq: 3},
				{URL: "u2", Score: -1.25, Seq: 4},
			},
			Seq: 5,
		},
		frontier.PriorityState{Entries: nil, Seq: 9},
		frontier.GroupedState{
			Actions: map[int][]string{2: {"b"}, 0: {"a", "aa"}, 7: nil},
			Seed:    99,
			Draws:   3,
		},
		frontier.GroupedState{Actions: nil, Seed: 1, Draws: 0},
	}
}

// TestFrontierStateRoundTrip: every frontier kind survives encode/decode
// with reflect.DeepEqual fidelity (RNG position included).
func TestFrontierStateRoundTrip(t *testing.T) {
	for _, st := range frontierStates() {
		blob, err := AppendFrontierState(nil, st)
		if err != nil {
			t.Fatalf("%T: encode: %v", st, err)
		}
		got, err := DecodeFrontierState(blob)
		if err != nil {
			t.Fatalf("%T: decode: %v", st, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("%T round trip:\n got %#v\nwant %#v", st, got, st)
		}
	}
}

// TestFrontierStateDeterministic: identical states encode to identical
// bytes (the grouped map is sorted), which the checkpoint byte-range delta
// depends on.
func TestFrontierStateDeterministic(t *testing.T) {
	st := frontier.GroupedState{
		Actions: map[int][]string{5: {"e"}, 1: {"a"}, 3: {"c"}, 2: {"b"}, 4: {"d"}},
		Seed:    7,
		Draws:   11,
	}
	a, err := AppendFrontierState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b, err := AppendFrontierState(nil, st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("grouped state encoding not deterministic:\n%x\n%x", a, b)
		}
	}
}

// TestFrontierStateErrors: unsupported state type, wrong kind, unknown
// sub-kind, truncation.
func TestFrontierStateErrors(t *testing.T) {
	if _, err := AppendFrontierState(nil, struct{}{}); err == nil {
		t.Fatal("unsupported state type accepted")
	}
	if _, err := DecodeFrontierState(AppendHeader(nil, KindEnvelope)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := DecodeFrontierState(AppendHeader(nil, KindFrontier)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing sub-kind: %v", err)
	}
	if _, err := DecodeFrontierState(append(AppendHeader(nil, KindFrontier), 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown sub-kind: %v", err)
	}
	blob, _ := AppendFrontierState(nil, frontier.QueueState{Items: []string{"abc"}})
	if _, err := DecodeFrontierState(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated frontier blob accepted")
	}
}

// TestDeltaRoundTrip: AppendDelta/ApplyDelta reproduce cur byte-for-byte
// across prefix/suffix/middle shapes.
func TestDeltaRoundTrip(t *testing.T) {
	cases := []struct{ base, cur string }{
		{"", ""},
		{"same", "same"},
		{"", "grown from nothing"},
		{"shrunk to nothing", ""},
		{"prefix-MID-suffix", "prefix-CHANGED-suffix"},
		{"abcdef", "abXdef"},
		{"counter=1|queue=a,b,c,d", "counter=2|queue=b,c,d"},
		{"completely", "different"},
		{"aaaa", "aaaaaa"},
		{"aaaaaa", "aaaa"},
	}
	for _, c := range cases {
		delta := AppendDelta(nil, []byte(c.base), []byte(c.cur))
		got, err := ApplyDelta([]byte(c.base), delta)
		if err != nil {
			t.Fatalf("apply(%q->%q): %v", c.base, c.cur, err)
		}
		if string(got) != c.cur {
			t.Fatalf("apply(%q->%q) = %q", c.base, c.cur, got)
		}
	}
	// The motivating shape — long shared prefix and suffix, tiny middle —
	// must produce a delta far smaller than the full blob.
	base := []byte("requests=100|" + string(bytes.Repeat([]byte("url,"), 200)))
	cur := []byte("requests=104|" + string(bytes.Repeat([]byte("url,"), 200)))
	if delta := AppendDelta(nil, base, cur); len(delta) > 32 {
		t.Fatalf("near-identical blobs produced a %d-byte delta (blob is %d bytes)", len(delta), len(cur))
	}
}

// TestDeltaWrongBase: the base-length guard rejects application against a
// different base, and corrupt deltas fail cleanly.
func TestDeltaWrongBase(t *testing.T) {
	base := []byte("the original checkpoint blob")
	cur := []byte("the original checkpoint blob v2")
	delta := AppendDelta(nil, base, cur)
	if _, err := ApplyDelta([]byte("a different base entirely!"), delta); err == nil {
		t.Fatal("delta applied against wrong-length base")
	}
	if _, err := ApplyDelta(base, delta[:len(delta)-1]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	// Prefix+suffix exceeding the base length must be rejected.
	bad := AppendUvarint(nil, uint64(len(base)))
	bad = AppendUvarint(bad, uint64(len(base)))
	bad = AppendUvarint(bad, uint64(len(base)))
	bad = AppendUvarint(bad, 0)
	if _, err := ApplyDelta(base, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping prefix/suffix accepted: %v", err)
	}
}

// TestBufferPool: a buffer handed back comes out of GetBuffer again, empty.
func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*b2))
	}
	PutBuffer(b2)
}

// TestOutsizedBufferIsNotParked: a buffer is parked empty and only while its
// capacity is within poolCap; one past it is left to the GC.
func TestOutsizedBufferIsNotParked(t *testing.T) {
	for len(bufFree) > 0 {
		<-bufFree
	}
	full := make([]byte, 3, poolCap)
	PutBuffer(&full)
	if len(bufFree) != 1 {
		t.Fatal("a buffer of poolCap bytes was not parked")
	}
	if b := <-bufFree; len(*b) != 0 || cap(*b) != poolCap {
		t.Fatalf("parked buffer has len %d, cap %d; want 0, %d", len(*b), cap(*b), poolCap)
	}
	huge := make([]byte, 0, poolCap+1)
	PutBuffer(&huge)
	if len(bufFree) != 0 {
		t.Error("a buffer past poolCap was parked")
		<-bufFree
	}
}

// TestKindBytesAreWireFormat pins every payload kind's header byte: stores
// on disk hold these bytes, so retiring a kind must leave its slot empty and
// never renumber the kinds after it.
func TestKindBytesAreWireFormat(t *testing.T) {
	for _, c := range []struct {
		name       string
		kind, want byte
	}{
		{"KindResponse", KindResponse, 1},
		{"KindCheckpoint", KindCheckpoint, 2},
		{"KindResult", KindResult, 3},
		{"KindFrontier", KindFrontier, 4},
		// 5 held the retired partition snapshots.
		{"KindEnvelope", KindEnvelope, 6},
		{"KindSessionRecord", KindSessionRecord, 7},
		{"KindCheckpointDelta", KindCheckpointDelta, 8},
	} {
		if c.kind != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.kind, c.want)
		}
	}
}
