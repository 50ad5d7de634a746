package codec_test

// Cross-package round trips: every persistence-plane type encodes and
// decodes with reflect.DeepEqual fidelity (the resume equivalence gates
// compare decoded values that way), nil-vs-empty and nil-vs-present
// distinctions included, and every decoder refuses a gob-era record with
// the typed codec.ErrLegacyFormat.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
)

func TestResponseRoundTrip(t *testing.T) {
	cases := []fetch.Response{
		sampleResponse(),
		{}, // zero value: empty strings, nil body
		{URL: "http://s/r", Status: 302, Location: "http://s/target", Body: nil},
		{URL: "http://s/e", Status: 200, MIME: "text/html", Body: []byte{}},
		{URL: "http://s/503", Status: 503, RetryAfter: 7, Interrupted: true},
	}
	for _, want := range cases {
		var got fetch.Response
		if err := fetch.DecodeResponseInto(fetch.AppendResponse(nil, &want), &got); err != nil {
			t.Fatalf("decode %q: %v", want.URL, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("response round trip:\n got %#v\nwant %#v", got, want)
		}
	}
}

// gobOf is v as a pre-codec build stored it.
func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestResponseLegacyGob(t *testing.T) {
	var resp fetch.Response
	if err := fetch.DecodeResponseInto(gobOf(t, sampleResponse()), &resp); !errors.Is(err, codec.ErrLegacyFormat) {
		t.Fatalf("gob-era response: err = %v, want ErrLegacyFormat", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []core.Checkpoint{
		sampleCheckpoint(),
		{}, // zero value: nil frontier
		{Requests: 4, Frontier: []byte{}},
	}
	for i, want := range cases {
		got, err := core.DecodeCheckpoint(core.AppendCheckpoint(nil, &want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d checkpoint round trip:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

func TestCheckpointLegacyGob(t *testing.T) {
	if _, err := core.DecodeCheckpoint(gobOf(t, sampleCheckpoint())); !errors.Is(err, codec.ErrLegacyFormat) {
		t.Fatalf("gob-era checkpoint: err = %v, want ErrLegacyFormat", err)
	}
}

// TestCheckpointWithPartitionSnapshots decodes a checkpoint exactly as the
// last build with a partition fabric wrote it: two KindPartitionSnapshot
// blobs (frontier items plus a quarantine list each) follow the frontier.
// They only ever warmed speculation, so the decoder reads past them, and
// re-encoding drops them without moving any other field.
func TestCheckpointWithPartitionSnapshots(t *testing.T) {
	const blob = "\x00\x01\x02P\x06\x0a\xd0\x8c\x01\xe0\xc5\x08z &" +
		"\x00\x01\x04\x01\x03\x0fhttp://a.test/x\x0fhttp://b.test/y" +
		"\x03" +
		"!\x00\x01\x05\x00\x02\x0fhttp://a.test/x\x02\x09dead.test" +
		"1\x00\x01\x05\x02\x03\x0fhttp://b.test/y\x0fhttp://b.test/z\x02\x09dead.test"
	frontierBlob, err := codec.AppendFrontierState(nil, frontier.QueueState{Items: []string{"http://a.test/x", "http://b.test/y"}})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Checkpoint{
		Requests: 40, HeadRequests: 3, Targets: 5, TargetBytes: 9000, NonTargetBytes: 70000,
		Visited: 61, TunerWindow: 16, Frontier: frontierBlob,
	}
	got, err := core.DecodeCheckpoint([]byte(blob))
	if err != nil {
		t.Fatalf("parent-format checkpoint rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-format checkpoint:\n got %#v\nwant %#v", got, want)
	}
	// Truncated inside the second snapshot: corrupt, not silently accepted.
	if _, err := core.DecodeCheckpoint([]byte(blob[:len(blob)-4])); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("truncated partition snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	full := sampleResult()
	minimal := &core.Result{Crawler: "dfs", Requests: 3, Steps: 3}
	for _, want := range []*core.Result{full, minimal} {
		got, err := core.DecodeResult(core.AppendResult(nil, want))
		if err != nil {
			t.Fatalf("%s: %v", want.Crawler, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s result round trip:\n got %#v\nwant %#v", want.Crawler, got, want)
		}
	}
	// The optional sections must come back nil, not zero-valued.
	got, err := core.DecodeResult(core.AppendResult(nil, minimal))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil || got.Actions != nil || got.Confusion != nil ||
		got.Spec != nil || got.Fabric != nil || got.Faults != nil {
		t.Fatalf("nil sections materialized: %#v", got)
	}
}

func TestResultLegacyGob(t *testing.T) {
	if _, err := core.DecodeResult(gobOf(t, sampleResult())); !errors.Is(err, codec.ErrLegacyFormat) {
		t.Fatalf("gob-era result: err = %v, want ErrLegacyFormat", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, want := range []fabric.Envelope{sampleEnvelope(), {From: 1, To: 2}} {
		got, err := decodeEnvelope(fabric.AppendEnvelope(nil, &want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope round trip:\n got %#v\nwant %#v", got, want)
		}
	}
}

// TestUnknownVersionRefused: a blob stamped with a future format version
// fails with the typed error at every decoder, never a misparse.
func TestUnknownVersionRefused(t *testing.T) {
	future := func(kind byte) []byte { return []byte{codec.Tag, 0x2A, kind, 0, 0, 0} }
	var resp fetch.Response
	if err := fetch.DecodeResponseInto(future(codec.KindResponse), &resp); !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("response: %v", err)
	}
	if _, err := core.DecodeCheckpoint(future(codec.KindCheckpoint)); !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := core.DecodeResult(future(codec.KindResult)); !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("result: %v", err)
	}
	if _, err := decodeEnvelope(future(codec.KindEnvelope)); !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("envelope: %v", err)
	}
	if _, err := codec.DecodeFrontierState(future(codec.KindFrontier)); !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("frontier: %v", err)
	}
}

// TestTruncatedPayloadsRefused: every decoder reports ErrCorrupt (not a
// partial value) when a codec blob is cut short.
func TestTruncatedPayloadsRefused(t *testing.T) {
	resp := sampleResponse()
	raw := fetch.AppendResponse(nil, &resp)
	for _, cut := range []int{4, len(raw) / 2, len(raw) - 1} {
		if err := fetch.DecodeResponseInto(raw[:cut], &resp); err == nil {
			t.Fatalf("truncated response at %d accepted", cut)
		}
	}
	cp := sampleCheckpoint()
	enc := core.AppendCheckpoint(nil, &cp)
	if _, err := core.DecodeCheckpoint(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
