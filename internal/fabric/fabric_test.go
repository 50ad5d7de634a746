package fabric

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"sbcrawl/internal/codec"
)

var sampleEnvelope = Envelope{From: 3, To: 1, URLs: []string{
	"https://s0.federation.test/a",
	"https://s1.federation.test/b?x=1",
}}

func gobEnvelope(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sampleEnvelope); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestEnvelopeGobRoundTrip keeps Envelope a flat value any stdlib encoder
// can carry: it must gob round-trip losslessly.
func TestEnvelopeGobRoundTrip(t *testing.T) {
	var out Envelope
	if err := gob.NewDecoder(bytes.NewReader(gobEnvelope(t))).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, sampleEnvelope) {
		t.Fatalf("round trip mangled envelope: %+v vs %+v", out, sampleEnvelope)
	}
}

// TestEnvelopeLegacyGob: the codec framing is the only wire format; a gob
// stream is refused with the typed error, not misparsed.
func TestEnvelopeLegacyGob(t *testing.T) {
	if _, err := codec.Header(gobEnvelope(t), codec.KindEnvelope); !errors.Is(err, codec.ErrLegacyFormat) {
		t.Fatalf("gob envelope: err = %v, want ErrLegacyFormat", err)
	}
}
