package serve

// Round trips for durable session records: the codec encoding, the typed
// refusal of a gob-era record, and a fuzz target over the decoder.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"sbcrawl/internal/codec"
)

func sampleRecord() sessionRecord {
	return sessionRecord{
		Spec: SessionSpec{
			Tenant: "team-a",
			Name:   "nightly",
			Weight: 4,
			Crawl: CrawlSpec{
				Strategy:        "sb-classifier",
				MaxRequests:     500,
				Seed:            11,
				EarlyStop:       true,
				SimLatency:      2 * time.Millisecond,
				Prefetch:        8,
				Partitions:      4,
				ParseWorkers:    2,
				Politeness:      time.Second,
				TargetMIMEs:     []string{"text/csv", "application/json"},
				Theta:           0.5,
				Alpha:           0.3,
				NGram:           3,
				BatchSize:       16,
				ClassifierModel: "ngram",
				UserAgent:       "sbcrawl/1",
				CheckpointEvery: 32,
				Retries:         3,
				FaultRate:       0.01,
				FaultSeed:       7,
				FaultDeadHosts:  []string{"dead.test"},
			},
			Sites: []SiteSpec{{Code: "ab", Scale: 0.02, Seed: 5}, {Code: "cd", Scale: 0.01, Seed: 6}},
		},
		Cancelled: false,
		Created:   time.Unix(0, 1723100000000000000),
	}
}

// recordsEqual compares records by their canonical encoding, which covers
// every field (nil-ness of Sites included) and stores Created as wall-clock
// seconds and nanoseconds — identity without the monotonic reading or the
// location. Bytes rather than reflect.DeepEqual because a float field may
// hold NaN (the fuzzer finds such a Scale within seconds), and NaN != NaN
// makes DeepEqual call a record different from itself.
func recordsEqual(a, b sessionRecord) bool {
	return bytes.Equal(encodeSessionRecord(&a), encodeSessionRecord(&b))
}

func TestSessionRecordRoundTrip(t *testing.T) {
	cases := []sessionRecord{
		sampleRecord(),
		{Created: time.Unix(0, 42)}, // zero spec: nil sites, roots, MIMEs
		// Zero Created (what a sparse gob-era record decodes to) sits
		// outside UnixNano's valid range; it must survive re-encoding.
		{},
		{Spec: SessionSpec{Roots: []string{"http://s/"}, Sites: []SiteSpec{}}, Cancelled: true, Created: time.Unix(0, 1)},
	}
	for i, want := range cases {
		got, err := decodeSessionRecord(encodeSessionRecord(&want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("case %d record round trip:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

func TestSessionRecordLegacyGob(t *testing.T) {
	want := sampleRecord()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSessionRecord(buf.Bytes()); !errors.Is(err, codec.ErrLegacyFormat) {
		t.Fatalf("gob-era record: err = %v, want ErrLegacyFormat", err)
	}
}

func FuzzSessionRecord(f *testing.F) {
	rec := sampleRecord()
	f.Add(encodeSessionRecord(&rec))
	f.Add([]byte{0x00, 0x01, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		rec, err := decodeSessionRecord(data)
		if err != nil {
			return
		}
		rec2, err := decodeSessionRecord(encodeSessionRecord(&rec))
		if err != nil {
			t.Fatalf("canonical record bytes rejected: %v", err)
		}
		if !recordsEqual(rec2, rec) {
			t.Fatalf("record identity:\n got %#v\nwant %#v", rec2, rec)
		}
	})
}
