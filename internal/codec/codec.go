// Package codec is the persistence plane's wire format: a versioned,
// length-prefixed, zero-allocation binary codec that replaced the
// reflection-based encoding/gob streams every durable byte used to round
// trip through (replay responses, engine checkpoints, frontier snapshots,
// fabric envelopes, crawld session records).
//
// # Framing
//
// Every codec blob opens with a three-byte header:
//
//	byte 0: format tag 0x00 — a gob stream's first byte is its leading
//	        message length (1..127) or a multi-byte length marker
//	        (0xF8..0xFF), never 0x00, so a record from a pre-codec build
//	        is recognised and refused with ErrLegacyFormat.
//	byte 1: format version (Version1). An unrecognized version fails with
//	        a typed *UnknownVersionError rather than misparsing.
//	byte 2: payload kind (Kind*), so a blob can never decode as the wrong
//	        type.
//
// The payload is hand-written per type: varint integers, length-prefixed
// strings and byte slices (with a nil/empty distinction, so decoded values
// reflect.DeepEqual their originals), IEEE-754 bit-pattern floats. Encoders
// are append-style over caller-owned buffers and decoders read through
// byte views (see Reader), so a steady-state encode or decode allocates
// nothing.
//
// The per-type marshal/unmarshal functions live next to their types —
// fetch.AppendResponse, core.AppendCheckpoint/AppendResult,
// fabric.AppendEnvelope, serve's session records — because those packages
// must encode (a marshal here would close an import cycle); this package
// owns the primitives they are all built from, plus the frontier-state
// payloads (all five frontier kinds, counted-RNG state included) and the
// checkpoint byte-range delta.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Tag is the first byte of every codec-format blob. Gob streams never
// start with 0x00 (their first byte is a message length), so a leading Tag
// byte is what separates codec records from gob-era ones.
const Tag = 0x00

// Version1 is the current format version.
const Version1 = 0x01

// Payload kinds (header byte 2). A decoder refuses a blob of the wrong
// kind with a typed *WrongKindError.
const (
	KindResponse byte = iota + 1
	KindCheckpoint
	KindResult
	KindFrontier
	_ // retired partition snapshots; checkpoints of earlier builds embed them
	KindEnvelope
	KindSessionRecord
	KindCheckpointDelta // no longer written; stores of earlier builds hold them
)

// ErrUnknownVersion matches (via errors.Is) a codec blob whose version
// byte this build does not understand — written by a newer build. The
// typed form is *UnknownVersionError.
var ErrUnknownVersion = errors.New("codec: unknown format version")

// UnknownVersionError reports a codec-format blob with an unrecognized
// version byte. It unwraps to ErrUnknownVersion.
type UnknownVersionError struct {
	// Version is the unrecognized version byte.
	Version byte
}

func (e *UnknownVersionError) Error() string {
	return fmt.Sprintf("codec: unknown format version 0x%02x (this build reads version 0x%02x): the store was written by a newer build", e.Version, Version1)
}

// Is makes errors.Is(err, ErrUnknownVersion) succeed.
func (e *UnknownVersionError) Is(target error) bool { return target == ErrUnknownVersion }

// WrongKindError reports a codec blob decoded as the wrong payload type.
type WrongKindError struct {
	Want, Got byte
}

func (e *WrongKindError) Error() string {
	return fmt.Sprintf("codec: payload kind 0x%02x where 0x%02x was expected", e.Got, e.Want)
}

// ErrCorrupt reports a payload that does not parse (truncated field,
// implausible length, trailing garbage).
var ErrCorrupt = errors.New("codec: corrupt payload")

// AppendHeader appends the three-byte header opening every codec blob.
func AppendHeader(dst []byte, kind byte) []byte {
	return append(dst, Tag, Version1, kind)
}

// ErrLegacyFormat matches (via errors.Is) a record without the codec
// format tag: a gob stream from a build that predates this package. Those
// builds' stores are no longer readable; a decoder reports the record as
// undecodable rather than misparsing it.
var ErrLegacyFormat = errors.New("codec: unsupported legacy (pre-codec gob) record")

// Header validates a blob's framing and returns the payload after the
// header, failing with a typed error on a tag-less (gob-era) blob, an
// unknown version or the wrong kind.
func Header(raw []byte, kind byte) (payload []byte, err error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty blob", ErrCorrupt)
	}
	if raw[0] != Tag {
		return nil, ErrLegacyFormat
	}
	if len(raw) < 3 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if raw[1] != Version1 {
		return nil, &UnknownVersionError{Version: raw[1]}
	}
	if raw[2] != kind {
		return nil, &WrongKindError{Want: kind, Got: raw[2]}
	}
	return raw[3:], nil
}

// bufPool recycles encode buffers so steady-state encoding allocates
// nothing. Buffers that grew past poolCap are dropped rather than pinned.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const poolCap = 1 << 20

// GetBuffer returns a pooled, zero-length encode buffer.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a buffer to the pool. The caller must not use the
// slice afterwards (the next GetBuffer may hand it out).
func PutBuffer(b *[]byte) {
	if cap(*b) > poolCap {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a signed (zigzag) varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendInt appends an int as a signed varint.
func AppendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends a float64 as its 8 IEEE-754 bytes (little-endian).
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a nil-aware length-prefixed byte slice: nil encodes
// as 0, a non-nil slice of n bytes as n+1 followed by the bytes, so decode
// reproduces the nil/empty distinction exactly.
func AppendBytes(dst []byte, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// AppendStrings appends a nil-aware string slice.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss))+1)
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendInts appends a nil-aware []int.
func AppendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vs))+1)
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// AppendInt32s appends a nil-aware []int32.
func AppendInt32s(dst []byte, vs []int32) []byte {
	if vs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vs))+1)
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// AppendInt64s appends a nil-aware []int64.
func AppendInt64s(dst []byte, vs []int64) []byte {
	if vs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vs))+1)
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// Reader decodes a codec payload sequentially. Errors are sticky: after
// the first malformed field every subsequent read returns zero values and
// Close reports the error, so decoders read straight through without
// per-field error handling. The zero-copy accessors (View, ViewString)
// alias the underlying buffer — the caller must keep the raw blob alive and
// unmodified for as long as those views are used.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads the payload returned by Header.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// Err returns the first decode error (nil while healthy).
func (r *Reader) Err() error { return r.err }

// Close finishes the decode: it fails if any field was malformed or if
// trailing bytes remain (a well-formed blob is consumed exactly).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// Rest consumes and returns every remaining payload byte as a view (nil
// after an error).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b[r.off:]
	r.off = len(r.b)
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed varint as int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail()
		return false
	}
	return v == 1
}

// Float64 reads 8 IEEE-754 bytes.
func (r *Reader) Float64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// take returns the next n raw bytes as a view. The bound is written as a
// subtraction (n > remaining) rather than r.off+n > len(r.b): a corrupt
// length prefix can put n anywhere up to 2^63-1, and the addition would
// overflow int and slip past the check.
func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// SliceLen reads a nil-aware length prefix: ok=false for nil, else the
// element count. The count is bounded by the remaining payload (every
// element costs at least one byte), so a corrupt length cannot force a
// huge allocation or a negative make cap. Decoders outside this package
// that read counted sequences element-by-element must use this rather
// than reading the prefix with Uvarint directly.
func (r *Reader) SliceLen() (n int, ok bool) {
	v := r.Uvarint()
	if v == 0 {
		return 0, false
	}
	n = int(v - 1)
	if n < 0 || n > len(r.b)-r.off {
		r.fail()
		return 0, false
	}
	return n, true
}

// ViewString reads a length-prefixed string as a zero-copy view over the
// payload (safe while the raw blob is alive and unmodified).
func (r *Reader) ViewString() string {
	n := int(r.Uvarint())
	b := r.take(n)
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// String reads a length-prefixed string, materialized (owns its bytes).
func (r *Reader) String() string {
	n := int(r.Uvarint())
	return string(r.take(n))
}

// View reads a nil-aware byte slice as a zero-copy view.
func (r *Reader) View() []byte {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return b
}

// Bytes reads a nil-aware byte slice, materialized.
func (r *Reader) Bytes() []byte {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Strings reads a nil-aware string slice, materialized.
func (r *Reader) Strings() []string {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Ints reads a nil-aware []int.
func (r *Reader) Ints() []int {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Int())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Int32s reads a nil-aware []int32.
func (r *Reader) Int32s() []int32 {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int32(r.Varint()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Int64s reads a nil-aware []int64.
func (r *Reader) Int64s() []int64 {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}
