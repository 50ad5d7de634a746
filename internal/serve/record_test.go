package serve

// Round trips for durable session records: the codec encoding, the typed
// refusal of a gob-era record, and a fuzz target over the decoder.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbcrawl"
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

// parentRecordHex is a session record exactly as the last commit with a
// ParseWorkers knob encoded it, and parentSpecJSON the spec its client
// posted: BFS on cl, 30 requests, prefetch 4, parse_workers 2.
const (
	parentRecordHex = "0001070461636d650a6f6c642d636c69656e7400036266733c060000080004" +
		"000000000000000000000000000000000000000000000000000000000000000000000202636c" +
		"7b14ae47e17a843f060000c0ada3eb0c00"
	parentSpecJSON = `{"tenant":"acme","name":"old-client",` +
		`"crawl":{"strategy":"bfs","max_requests":30,"seed":3,"prefetch":4,"parse_workers":2},` +
		`"sites":[{"code":"cl","scale":0.01,"seed":3}]}`
)

// TestRetiredParseWorkersSlot is the wire-compatibility gate of the retired
// knob: a stored record that carries a parse_workers value still decodes (the
// slot is read and discarded), and after a restart over that store the old
// client re-attaches with its old JSON — the ignored field must not turn the
// spec comparison into a 409.
func TestRetiredParseWorkersSlot(t *testing.T) {
	raw, err := hex.DecodeString(parentRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeSessionRecord(raw)
	if err != nil {
		t.Fatalf("parent-format record: %v", err)
	}
	want := SessionSpec{
		Tenant: "acme",
		Name:   "old-client",
		Crawl:  CrawlSpec{Strategy: "bfs", MaxRequests: 30, Seed: 3, Prefetch: 4},
		Sites:  []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 3}},
	}
	if !reflect.DeepEqual(rec.Spec, want) {
		t.Fatalf("decoded spec = %+v, want %+v", rec.Spec, want)
	}

	dir := t.TempDir()
	st, err := sbcrawl.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := SessionID("acme", "old-client")
	if err := st.Records("crawld").Put("sess|"+id, raw); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, client, stop := daemon(t, Config{StorePath: dir, Workers: 1})
	defer stop()
	resp, err := http.Post(client.BaseURL+"/v1/sessions", "application/json", strings.NewReader(parentSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var attached SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&attached); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || attached.ID != id {
		t.Fatalf("re-attach with the old spec: HTTP %d, id %q, want 200 and %q", resp.StatusCode, attached.ID, id)
	}
	done, err := client.WaitDone(context.Background(), id)
	if err != nil || done.State != StateDone || done.Requests != 30 {
		t.Fatalf("reloaded session: %+v, %v", done, err)
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
