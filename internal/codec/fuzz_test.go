package codec_test

// FuzzCodec throws arbitrary bytes at every persistence-plane decoder and
// enforces the codec's two safety properties: a decoder never panics (it
// returns a value or a typed error, whatever the input), and any blob it
// does accept survives encode→decode→re-encode with value identity — the
// re-encoded canonical bytes decode back to a DeepEqual value.

import (
	"encoding/binary"
	"reflect"
	"testing"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
)

func FuzzCodec(f *testing.F) {
	// Seeds: a real encoding of each of the five codec families, plus
	// framing edge cases (bare headers, a gob-looking first byte, a future
	// version stamp).
	resp := sampleResponse()
	f.Add(fetch.AppendResponse(nil, &resp))
	cp := sampleCheckpoint()
	f.Add(core.AppendCheckpoint(nil, &cp))
	f.Add(core.AppendResult(nil, sampleResult()))
	env := sampleEnvelope()
	f.Add(fabric.AppendEnvelope(nil, &env))
	f.Add(sampleFrontierBlob())
	f.Add([]byte{codec.Tag, codec.Version1, codec.KindResponse})
	f.Add([]byte{codec.Tag, 0x7F, codec.KindResult, 1, 2, 3})
	f.Add([]byte{0x21, 0xFF, 0x81})
	// Regression seeds (see corrupt_test.go): a string length prefix near
	// 2^63 that used to overflow the Reader.take bounds check, and a
	// checkpoint element count far beyond the payload that used to drive an
	// unbounded make.
	f.Add(binary.AppendUvarint(codec.AppendHeader(nil, codec.KindResult), 1<<63-1))
	cpb := core.AppendCheckpoint(nil, &core.Checkpoint{})
	f.Add(binary.AppendUvarint(cpb[:len(cpb)-1], 1<<40+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // five decoders run per input: keep iterations cheap
		}
		var resp, resp2 fetch.Response
		if fetch.DecodeResponseInto(data, &resp) == nil {
			if err := fetch.DecodeResponseInto(fetch.AppendResponse(nil, &resp), &resp2); err != nil {
				t.Fatalf("canonical response bytes rejected: %v", err)
			}
			if !reflect.DeepEqual(resp2, resp) {
				t.Fatalf("response identity:\n got %#v\nwant %#v", resp2, resp)
			}
		}
		if cp, err := core.DecodeCheckpoint(data); err == nil {
			cp2, err := core.DecodeCheckpoint(core.AppendCheckpoint(nil, &cp))
			if err != nil || !reflect.DeepEqual(cp2, cp) {
				t.Fatalf("checkpoint identity: err=%v\n got %#v\nwant %#v", err, cp2, cp)
			}
		}
		if res, err := core.DecodeResult(data); err == nil {
			res2, err := core.DecodeResult(core.AppendResult(nil, res))
			if err != nil || !reflect.DeepEqual(res2, res) {
				t.Fatalf("result identity: err=%v\n got %#v\nwant %#v", err, res2, res)
			}
		}
		if e, err := decodeEnvelope(data); err == nil {
			e2, err := decodeEnvelope(fabric.AppendEnvelope(nil, &e))
			if err != nil || !reflect.DeepEqual(e2, e) {
				t.Fatalf("envelope identity: err=%v\n got %#v\nwant %#v", err, e2, e)
			}
		}
		if st, err := codec.DecodeFrontierState(data); err == nil {
			blob, err := codec.AppendFrontierState(nil, st)
			if err != nil {
				t.Fatalf("re-encode accepted frontier state: %v", err)
			}
			st2, err := codec.DecodeFrontierState(blob)
			if err != nil || !reflect.DeepEqual(st2, st) {
				t.Fatalf("frontier identity: err=%v\n got %#v\nwant %#v", err, st2, st)
			}
		}
	})
}

// FuzzDelta: ApplyDelta never panics on arbitrary delta bytes, and a
// well-formed delta round-trips any (base, cur) pair byte-for-byte.
func FuzzDelta(f *testing.F) {
	f.Add([]byte("base bytes here"), []byte("base bytes two"), []byte{})
	f.Add([]byte(""), []byte("grown"), []byte{0, 0, 0, 0})
	f.Add([]byte("abc"), []byte("abc"), []byte{3, 3, 0, 0})
	// Regression seed: prefix+suffix lengths whose uint64 sum wraps used to
	// slip past the exceed-base guard and panic (see corrupt_test.go).
	wrap := binary.AppendUvarint(nil, 4)
	wrap = binary.AppendUvarint(wrap, 1<<64-1)
	wrap = binary.AppendUvarint(wrap, 2)
	wrap = binary.AppendUvarint(wrap, 0)
	f.Add([]byte("0123"), []byte("0123"), wrap)
	f.Fuzz(func(t *testing.T, base, cur, junk []byte) {
		if len(base) > 1<<16 || len(cur) > 1<<16 {
			return
		}
		delta := codec.AppendDelta(nil, base, cur)
		got, err := codec.ApplyDelta(base, delta)
		if err != nil {
			t.Fatalf("apply own delta: %v", err)
		}
		if string(got) != string(cur) {
			t.Fatalf("delta round trip: got %q want %q", got, cur)
		}
		// Arbitrary delta bytes must fail cleanly or produce some blob —
		// never panic or over-read.
		if out, err := codec.ApplyDelta(base, junk); err == nil && len(out) > len(base)+len(junk) {
			t.Fatalf("delta output larger than inputs: %d", len(out))
		}
	})
}
