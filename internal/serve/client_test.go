package serve

// The client's side of the wire: a finished session decodes to exactly what
// the daemon holds and marshals to the recorded JSON, decoding a response
// costs what json.Unmarshal of its bytes costs, and sequential calls share
// one keep-alive connection.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite "+terminalStatusFile+" from a fresh run of wireSpec")

// terminalStatusFile holds wireSpec's finished status, marshalled as
// Server.Get returned it while sbcrawl.CurvePoint was a struct of its own:
// the wire that the alias must not change.
const terminalStatusFile = "testdata/terminal_status.json"

// wireSpec is a session whose terminal status carries every part of the
// wire: one unit of 64 requests (a 64-point curve), injected faults (the
// faults blocks) and the daemon's store (store stats).
var wireSpec = SessionSpec{
	Tenant: "acme",
	Name:   "wire",
	Crawl:  CrawlSpec{Strategy: "sb", Seed: 7, MaxRequests: 64, FaultRate: 0.1, FaultSeed: 3},
	Sites:  []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 1}},
}

// TestClientWireUnchanged: what the client decodes of a finished session is
// what the daemon holds, and the session's JSON is byte for byte the
// recorded one, its curve points keyed Requests, Targets, TargetBytes and
// NonTargetBytes.
func TestClientWireUnchanged(t *testing.T) {
	srv, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 1})
	defer stop()
	ctx := context.Background()
	created, err := client.Create(ctx, wireSpec)
	if err != nil {
		t.Fatal(err)
	}
	waited, err := client.WaitDone(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Wait(ctx, created.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(waited, want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the client decoded another status than the daemon holds:\nWaitDone %+v\nGet      %+v\nServer   %+v", waited, got, want)
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(terminalStatusFile, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(terminalStatusFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("terminal status JSON changed:\n got %s\nwant %s", raw, golden)
	}
	var wire struct {
		Results []struct {
			Result struct{ Curve []map[string]json.RawMessage }
		}
	}
	if err := json.Unmarshal(golden, &wire); err != nil || len(wire.Results) != 1 {
		t.Fatalf("recorded status: %v, %d unit results", err, len(wire.Results))
	}
	curve := wire.Results[0].Result.Curve
	if len(curve) < 40 {
		t.Fatalf("recorded curve has %d points, want at least 40", len(curve))
	}
	for _, pt := range curve {
		if len(pt) != 4 || pt["Requests"] == nil || pt["Targets"] == nil || pt["TargetBytes"] == nil || pt["NonTargetBytes"] == nil {
			t.Fatalf("curve point %s: want exactly the keys Requests, Targets, TargetBytes, NonTargetBytes", pt)
		}
	}
}

// TestClientDecodeAlloc: a crawld client decodes each response out of one
// reused buffer, so reading the recorded terminal status off a reader costs
// what json.Unmarshal of its bytes costs plus a small constant, not a
// json.Decoder whose buffer grows past twice the body on every call.
func TestClientDecodeAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	raw, err := os.ReadFile(terminalStatusFile)
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 1 || st.Results[0].Result == nil || len(st.Results[0].Result.Curve) < 40 ||
		st.Faults == nil || st.Results[0].Result.Store == nil {
		t.Fatalf("%s is not a finished one-unit session with a 40-point curve, faults and store stats", terminalStatusFile)
	}
	body := bytes.NewReader(raw)
	fromReader := func() {
		body.Reset(raw)
		var st SessionStatus
		if err := decodeJSON(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	fromSlice := func() {
		var st SessionStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
	}
	const slack = 512
	if got, base := bytesPerRun(100, fromReader), bytesPerRun(100, fromSlice); got > base+slack {
		t.Errorf("decoding a %d-byte status from a reader allocates %d bytes, json.Unmarshal of the read bytes %d: want at most %d more",
			len(raw), got, base, slack)
	}
}

// TestClientReusesConnection: the client reads every body to its end, so
// sequential calls go over one keep-alive connection instead of dialling one
// per call.
func TestClientReusesConnection(t *testing.T) {
	srv, err := New(Config{StorePath: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := srv.Create(wireSpec)
	for err == nil && !st.Done() {
		st, err = srv.Wait(context.Background(), st.ID, st.Seq, 10*time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: transport}}
	for range 200 {
		if _, err := client.Get(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("200 sequential Gets of a finished session opened %d connections, want 1", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
