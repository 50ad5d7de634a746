package codec

// Byte-range deltas between checkpoint encodings: (common prefix length,
// common suffix length, replacement middle); applying one to its base
// reproduces the newer blob byte-for-byte. Earlier builds checkpointed a
// serialized frontier and wrote a full blob every eighth checkpoint with
// these deltas between; a checkpoint is now ~25 bytes of counters and is
// always written whole, so ApplyDelta survives to read the stores those
// builds left and AppendDelta only because the frozen benchmark/ calls it.

import "fmt"

// AppendDelta appends the delta transforming base into cur: a base-length
// guard, the shared prefix/suffix lengths, and the replacement middle
// bytes.
func AppendDelta(dst, base, cur []byte) []byte {
	p := 0
	max := len(base)
	if len(cur) < max {
		max = len(cur)
	}
	for p < max && base[p] == cur[p] {
		p++
	}
	s := 0
	for s < max-p && base[len(base)-1-s] == cur[len(cur)-1-s] {
		s++
	}
	dst = AppendUvarint(dst, uint64(len(base)))
	dst = AppendUvarint(dst, uint64(p))
	dst = AppendUvarint(dst, uint64(s))
	mid := cur[p : len(cur)-s]
	dst = AppendUvarint(dst, uint64(len(mid)))
	return append(dst, mid...)
}

// ApplyDelta reconstructs the current blob from base and a delta produced
// by AppendDelta over that same base. The encoded base-length guard
// rejects application against the wrong base.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	r := NewReader(delta)
	baseLen := r.Uvarint()
	p := r.Uvarint()
	s := r.Uvarint()
	midLen := int(r.Uvarint())
	mid := r.take(midLen)
	if err := r.Close(); err != nil {
		return nil, err
	}
	if int(baseLen) != len(base) {
		return nil, fmt.Errorf("%w: delta base length %d, have %d", ErrCorrupt, baseLen, len(base))
	}
	// Checked as two subtractions, not p+s > len(base): p and s come off
	// the wire and their sum can wrap uint64, slipping past a combined
	// check and panicking at the slice expressions below.
	if p > uint64(len(base)) || s > uint64(len(base))-p {
		return nil, fmt.Errorf("%w: delta prefix+suffix exceed base", ErrCorrupt)
	}
	out := make([]byte, 0, int(p)+len(mid)+int(s))
	out = append(out, base[:p]...)
	out = append(out, mid...)
	out = append(out, base[uint64(len(base))-s:]...)
	return out, nil
}
