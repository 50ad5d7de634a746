package fabric

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
)

// TestEnvelopeGobRoundTrip pins the exchange message's wire-readiness: the
// in-process fabric moves Envelopes over channels, but the type must gob
// round-trip losslessly so a cross-process transport can frame it as-is.
func TestEnvelopeGobRoundTrip(t *testing.T) {
	in := Envelope{From: 3, To: 1, URLs: []string{
		"https://s0.federation.test/a",
		"https://s1.federation.test/b?x=1",
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Envelope
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.From != in.From || out.To != in.To || len(out.URLs) != len(in.URLs) {
		t.Fatalf("round trip mangled envelope: %+v vs %+v", out, in)
	}
	for i := range in.URLs {
		if out.URLs[i] != in.URLs[i] {
			t.Fatalf("URL %d round-tripped to %q, want %q", i, out.URLs[i], in.URLs[i])
		}
	}
}

// TestPartitionSnapshotGobRoundTrip does the same for the checkpoint
// payload: per-partition frontier snapshots must survive the store.
func TestPartitionSnapshotGobRoundTrip(t *testing.T) {
	in := PartitionSnapshot{
		Partition: 2,
		Frontier:  frontier.QueueState{Items: []string{"https://a.test/", "https://b.test/x"}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out PartitionSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Partition != 2 || len(out.Frontier.Items) != 2 || out.Frontier.Items[1] != "https://b.test/x" {
		t.Fatalf("round trip mangled snapshot: %+v", out)
	}
}

// TestOwnershipByHost pins the sharding rule: every URL of one host maps to
// one partition (whatever the path), www is stripped, and hosts spread over
// the partition range.
func TestOwnershipByHost(t *testing.T) {
	f, err := New(&stubFetcher{}, Config{Partitions: 4, Root: "https://www.federation.test/"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := f.owner("https://s1.federation.test/")
	for _, u := range []string{
		"https://s1.federation.test/a/b",
		"https://s1.federation.test/c?q=1",
		"https://www.s1.federation.test/d",
	} {
		if got := f.owner(u); got != base {
			t.Errorf("owner(%q) = %d, want %d (same host, same partition)", u, got, base)
		}
	}
	owners := make(map[int]bool)
	for i := 0; i < 32; i++ {
		p := f.owner(fmt.Sprintf("https://s%d.federation.test/", i))
		if p < 0 || p >= 4 {
			t.Fatalf("owner out of range: %d", p)
		}
		owners[p] = true
	}
	if len(owners) < 2 {
		t.Errorf("32 hosts all hashed onto %d partition(s); want spread", len(owners))
	}
}

// TestResolve pins the PartitionsAuto mapping.
func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	if got := Resolve(Auto); got < 1 || got > 8 {
		t.Errorf("Resolve(Auto) = %d, want 1..8", got)
	}
}

// TestSnapshotRestore checks the checkpoint/resume loop: frontiers
// serialized from one fabric re-seed another — including one with a
// different partition count, since restore re-routes by host hash.
func TestSnapshotRestore(t *testing.T) {
	urls := []string{
		"https://s0.federation.test/a",
		"https://s1.federation.test/b",
		"https://s2.federation.test/c",
		"https://s3.federation.test/d",
	}
	f1, err := New(&stubFetcher{}, Config{Partitions: 4, Root: "https://www.federation.test/"})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	for _, u := range urls {
		f1.seed(u)
	}
	warm := f1.SnapshotFrontiers()
	if len(warm) != 4 {
		t.Fatalf("snapshot produced %d blobs, want 4", len(warm))
	}

	// Restore into a 2-partition fabric: every URL must land somewhere.
	f2, err := New(&stubFetcher{}, Config{Partitions: 2, Root: "https://www.federation.test/", Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := pendingSet(f2)
	for _, u := range append(urls, "https://www.federation.test/") {
		if !got[u] {
			t.Errorf("restored fabric lost %q (pending: %v)", u, keysOf(got))
		}
	}
	// And every restored URL sits on the partition its host hashes to.
	for i, p := range f2.parts {
		p.mu.Lock()
		items := p.frontier.Snapshot().Items
		p.mu.Unlock()
		for _, u := range items {
			if f2.owner(u) != i {
				t.Errorf("URL %q restored onto partition %d, owner is %d", u, i, f2.owner(u))
			}
		}
	}
}

func pendingSet(f *Fabric) map[string]bool {
	out := make(map[string]bool)
	for _, p := range f.parts {
		p.mu.Lock()
		for _, u := range p.frontier.Snapshot().Items {
			out[u] = true
		}
		p.mu.Unlock()
	}
	return out
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stubFetcher is an inert backend for construction-only tests.
type stubFetcher struct{}

func (s *stubFetcher) Get(u string) (fetch.Response, error) {
	return fetch.Response{URL: u, Status: 404}, nil
}
func (s *stubFetcher) Head(u string) (fetch.Response, error) {
	return fetch.Response{URL: u, Status: 404}, nil
}

// politeChainBackend serves a single-host chain of HTML pages (/p0 → /p1 →
// …), routing every GET through a shared fetch.Registry and recording grant
// times — the cross-partition politeness probe.
type politeChainBackend struct {
	reg   *fetch.Registry
	delay time.Duration
	pages int

	mu     sync.Mutex
	grants []time.Time
}

func (b *politeChainBackend) Get(u string) (fetch.Response, error) {
	if err := b.reg.WaitContext(nil, "shared.test", b.delay); err != nil {
		return fetch.Response{}, err
	}
	b.mu.Lock()
	b.grants = append(b.grants, time.Now())
	b.mu.Unlock()
	var n int
	fmt.Sscanf(u[strings.LastIndex(u, "/p")+2:], "%d", &n)
	body := "<html><body>end</body></html>"
	if n+1 < b.pages {
		body = fmt.Sprintf(`<html><body><a href="/p%d">next</a></body></html>`, n+1)
	}
	return fetch.Response{
		URL: u, Status: 200, MIME: "text/html; charset=utf-8",
		Body: []byte(body), ContentLength: len(body),
	}, nil
}

func (b *politeChainBackend) Head(u string) (fetch.Response, error) {
	return fetch.Response{URL: u, Status: 200, MIME: "text/html; charset=utf-8"}, nil
}

func (b *politeChainBackend) grantCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.grants)
}

// TestHostLimiterCrossPartitionSpacing extends the TestHostLimiterCrossTenant*
// family to the fabric: two independently partitioned fabrics (think two
// fleet crawls, or two crawld tenants) speculatively crawling the same host
// through one shared HostRegistry must observe MinDelay spacing globally —
// partitioned speculation gets no politeness exemption.
func TestHostLimiterCrossPartitionSpacing(t *testing.T) {
	const (
		delay = 10 * time.Millisecond
		pages = 5
	)
	reg := fetch.NewRegistry()
	backend := &politeChainBackend{reg: reg, delay: delay, pages: pages}

	var fabrics []*Fabric
	for i := 0; i < 2; i++ {
		f, err := New(backend, Config{Partitions: 2, Root: "https://shared.test/p0"})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Start()
		fabrics = append(fabrics, f)
	}

	// Both fabrics chain through all pages speculatively; wait for the
	// combined traffic to land (bounded, politeness-dominated).
	want := 2 * pages
	deadline := time.Now().Add(10 * time.Second)
	for backend.grantCount() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d polite grants arrived", backend.grantCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range fabrics {
		f.Close()
	}

	backend.mu.Lock()
	grants := append([]time.Time(nil), backend.grants...)
	backend.mu.Unlock()
	// Every adjacent pair of grants on the shared host is spaced, whichever
	// fabric or partition issued it. Grant stamps are taken just after the
	// registry wait returns, so allow a small scheduling epsilon.
	const epsilon = 2 * time.Millisecond
	for i := 1; i < len(grants); i++ {
		if gap := grants[i].Sub(grants[i-1]); gap < delay-epsilon {
			t.Errorf("cross-partition grants %d→%d spaced %v apart, want >= %v", i-1, i, gap, delay)
		}
	}
	usage := reg.Usage()
	if len(usage) != 1 || usage[0].Host != "shared.test" {
		t.Fatalf("registry usage = %+v, want exactly shared.test", usage)
	}
	if usage[0].Grants < want {
		t.Errorf("registry accounted %d grants, want >= %d", usage[0].Grants, want)
	}
}

// TestLedgerBoundsSpeculation pins the charge ledger: with no demand ticks,
// a partition can spend at most the configured lead; each tick for its URLs
// releases exactly one more credit, and accounting is per partition — one
// partition's demand never funds another's speculation.
func TestLedgerBoundsSpeculation(t *testing.T) {
	l := newLedger(2, 3)
	for i := 0; i < 3; i++ {
		if !l.acquire(0) {
			t.Fatalf("acquire %d refused inside the lead", i)
		}
	}
	done := make(chan bool, 1)
	go func() { done <- l.acquire(0) }()
	select {
	case <-done:
		t.Fatal("acquire beyond the lead returned without a demand tick")
	case <-time.After(20 * time.Millisecond):
	}
	// A tick for the OTHER partition must not release partition 0.
	l.tick(1)
	select {
	case <-done:
		t.Fatal("partition 1's demand funded partition 0's speculation")
	case <-time.After(20 * time.Millisecond):
	}
	l.tick(0)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("released acquire reported closed")
		}
	case <-time.After(time.Second):
		t.Fatal("tick did not release the blocked acquire")
	}
	// Partition 1 still has its own lead plus the banked tick.
	for i := 0; i < 4; i++ {
		if !l.acquire(1) {
			t.Fatalf("partition 1 acquire %d refused inside lead+tick", i)
		}
	}
	// Close fails further acquires and wakes waiters.
	go func() { done <- l.acquire(0) }()
	l.close()
	if ok := <-done; ok {
		t.Fatal("acquire after close succeeded")
	}
}

// TestExchangeNonBlocking pins the no-deadlock property: a full inbox makes
// send report false (a stall) instead of blocking.
func TestExchangeNonBlocking(t *testing.T) {
	x := newExchange(2, 1)
	if !x.send(Envelope{From: 0, To: 1, URLs: []string{"a"}}) {
		t.Fatal("send into empty inbox failed")
	}
	if x.send(Envelope{From: 0, To: 1, URLs: []string{"b"}}) {
		t.Fatal("send into full inbox succeeded; must stall")
	}
	fwd, stalls, depth := x.stats()
	if fwd != 1 || stalls != 1 || depth != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (1,1,1)", fwd, stalls, depth)
	}
}
