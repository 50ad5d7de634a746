package fabric

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/urlutil"
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

// TestOwnershipByHost pins the sharding rule behind Stats.PartitionFetches:
// every URL of one host maps to one partition (whatever the path), www is
// stripped, and hosts spread over the partition range.
func TestOwnershipByHost(t *testing.T) {
	owner := func(u string) int { return Owner(urlutil.SiteHost(u), 4) }
	base := owner("https://s1.federation.test/")
	for _, u := range []string{
		"https://s1.federation.test/a/b",
		"https://s1.federation.test/c?q=1",
		"https://www.s1.federation.test/d",
	} {
		if got := owner(u); got != base {
			t.Errorf("owner(%q) = %d, want %d (same host, same partition)", u, got, base)
		}
	}
	owners := make(map[int]bool)
	for i := 0; i < 32; i++ {
		p := owner(fmt.Sprintf("https://s%d.federation.test/", i))
		if p < 0 || p >= 4 {
			t.Fatalf("owner out of range: %d", p)
		}
		owners[p] = true
	}
	if len(owners) < 2 {
		t.Errorf("32 hosts all hashed onto %d partition(s); want spread", len(owners))
	}
	if got := Owner("s1.federation.test", 1); got != 0 {
		t.Errorf("Owner(_, 1) = %d, want 0", got)
	}
}

// TestResolve pins the PartitionsAuto mapping.
func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got != 0 {
		t.Errorf("Resolve(0) = %d", got)
	}
	if got := Resolve(Auto); got < 1 || got > 8 {
		t.Errorf("Resolve(Auto) = %d, want 1..8", got)
	}
}
