package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"deact/internal/experiments"
	"deact/internal/resultstore"
)

// testServer builds the service at -short scale with a store in dir.
func testServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(experiments.Options{Warmup: 1_000, Measure: 2_000, Cores: 1, Seed: 42,
		Parallelism: 2, Store: st})
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ts.Close()
		s.runner.WaitIdle()
	})
	return ts
}

// TestServeBoundsSlowClients: the served http.Server carries both
// slow-client bounds, so a client that never finishes its headers or
// idles on a keep-alive connection cannot hold it forever.
func TestServeBoundsSlowClients(t *testing.T) {
	s := newServer(experiments.Options{Cores: 1, Parallelism: 1})
	srv := s.httpServer("localhost:8371")
	if srv.Addr != "localhost:8371" || srv.Handler == nil {
		t.Fatalf("server not wired: addr %q, handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
}

// line is the decoded shape of a /run response or /sweep NDJSON line; Result
// stays raw so byte-identity can be asserted.
type line struct {
	Fingerprint string
	Cached      bool
	Result      json.RawMessage
	Error       string
}

func postRun(t *testing.T, ts *httptest.Server, body string) line {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run %s: %d: %s", body, resp.StatusCode, data)
	}
	var l line
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("POST /run response: %v: %s", err, data)
	}
	return l
}

// TestServeRunSecondPostIsCacheHit is the service-mode acceptance gate:
// the second POST of the same configuration answers from the store with
// byte-identical result bytes.
func TestServeRunSecondPostIsCacheHit(t *testing.T) {
	ts := testServer(t, t.TempDir())
	const body = `{"Benchmark":"mcf","Scheme":"deact-n"}`
	first := postRun(t, ts, body)
	if first.Cached {
		t.Fatal("first POST served from an empty store")
	}
	if first.Fingerprint == "" || len(first.Result) == 0 {
		t.Fatalf("incomplete response: %+v", first)
	}
	second := postRun(t, ts, body)
	if !second.Cached {
		t.Fatal("second POST of the same config did not hit the store")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatal("fingerprint changed between identical POSTs")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cache hit not byte-identical to the computed result")
	}
}

// TestServeSparseOverlay: `{}` and an explicit default knob land on the
// same fingerprint; a changed knob lands on a different one.
func TestServeSparseOverlay(t *testing.T) {
	ts := testServer(t, t.TempDir())
	empty := postRun(t, ts, `{}`)
	same := postRun(t, ts, `{"Seed":42}`)
	if empty.Fingerprint != same.Fingerprint {
		t.Fatal("explicit default landed on a different fingerprint than {}")
	}
	if !same.Cached {
		t.Fatal("identity-preserving overlay missed the store")
	}
	other := postRun(t, ts, `{"Seed":7}`)
	if other.Fingerprint == empty.Fingerprint {
		t.Fatal("changed seed kept the fingerprint")
	}
}

// TestServeSweepStreamsInOrder: NDJSON lines come back in submission
// order, and a repeat sweep is all cache hits with identical bytes.
func TestServeSweepStreamsInOrder(t *testing.T) {
	ts := testServer(t, t.TempDir())
	const body = `{"Configs":[
		{"Benchmark":"mcf","Scheme":"i-fam"},
		{"Benchmark":"mcf","Scheme":"deact-n"},
		{"Benchmark":"sp","Scheme":"deact-n"}
	]}`
	sweep := func() []line {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /sweep: %d: %s", resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("sweep Content-Type = %q", ct)
		}
		var lines []line
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("bad NDJSON line: %v: %s", err, sc.Text())
			}
			lines = append(lines, l)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return lines
	}

	cold := sweep()
	if len(cold) != 3 {
		t.Fatalf("cold sweep returned %d lines, want 3", len(cold))
	}
	for i, l := range cold {
		if l.Error != "" || len(l.Result) == 0 {
			t.Fatalf("cold line %d incomplete: %+v", i, l)
		}
		if l.Cached {
			t.Fatalf("cold line %d claims a cache hit", i)
		}
	}
	if cold[0].Fingerprint == cold[1].Fingerprint || cold[1].Fingerprint == cold[2].Fingerprint {
		t.Fatal("distinct configs share a fingerprint")
	}

	warm := sweep()
	for i := range cold {
		if !warm[i].Cached {
			t.Errorf("warm line %d not served from the store", i)
		}
		if warm[i].Fingerprint != cold[i].Fingerprint {
			t.Errorf("line %d out of submission order on the warm pass", i)
		}
		if !bytes.Equal(warm[i].Result, cold[i].Result) {
			t.Errorf("warm line %d not byte-identical to the cold run", i)
		}
	}
}

// TestServeSweepPointCap: a /sweep of exactly maxSweepConfigs configs is
// served, and one more config is a 400 before anything is submitted.
func TestServeSweepPointCap(t *testing.T) {
	s := newServer(experiments.Options{Warmup: 1_000, Measure: 2_000, Cores: 1, Seed: 42, Parallelism: 2})
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ts.Close()
		s.runner.WaitIdle()
	})
	sweep := func(cfgs []string) *http.Response {
		body := `{"Configs":[` + strings.Join(cfgs, ",") + `]}`
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	over := make([]string, maxSweepConfigs+1)
	for i := range over {
		over[i] = fmt.Sprintf(`{"Seed":%d}`, i)
	}
	resp := sweep(over)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep of %d configs = %d, want 400", len(over), resp.StatusCode)
	}
	if _, submitted := s.runner.Progress(); submitted != 0 {
		t.Fatalf("rejected sweep submitted %d runs", submitted)
	}

	// At the cap every config is the same point, so the Runner simulates
	// it once and the stream still carries one line per config.
	same := make([]string, maxSweepConfigs)
	for i := range same {
		same[i] = `{"Seed":1}`
	}
	resp = sweep(same)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep of %d configs = %d: %s", maxSweepConfigs, resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for ; sc.Scan(); lines++ {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil || l.Error != "" {
			t.Fatalf("line %d: %v %s", lines, err, l.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != maxSweepConfigs {
		t.Fatalf("sweep streamed %d lines, want %d", lines, maxSweepConfigs)
	}
	if n := s.runner.CachedRuns(); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
}

// TestServeSweepClientDisconnectAbortsQueuedRuns pins the abandonment path
// of /sweep: when the client disconnects mid-stream, the handler's deferred
// releases must detach every unconsumed future, so the in-flight simulation
// aborts at its next event-loop stride, queued points never run, and no
// goroutine outlives the request.
func TestServeSweepClientDisconnectAbortsQueuedRuns(t *testing.T) {
	before := runtime.NumGoroutine()

	// No store; one worker slot so the later points queue behind the first,
	// and a measured phase long enough (seconds uncancelled) that the
	// disconnect lands mid-simulation.
	s := newServer(experiments.Options{Warmup: 0, Measure: 5_000_000, Cores: 1, Seed: 42, Parallelism: 1})
	ts := httptest.NewServer(s.mux())

	var cfgs []string
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, fmt.Sprintf(`{"Benchmark":"mcf","Scheme":"deact-n","Seed":%d}`, 100+i))
	}
	body := `{"Configs":[` + strings.Join(cfgs, ",") + `]}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	respc := make(chan struct{})
	go func() {
		defer close(respc)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the first simulation start
	cancel()                           // client disconnects mid-stream
	<-respc

	// The handler must return and the worker pool must drain promptly: the
	// admitted run aborts at the next stride, the queued ones at admission.
	start := time.Now()
	ts.Close() // waits for the handler
	s.runner.WaitIdle()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker pool took %v to drain after the disconnect", elapsed)
	}
	if completed, _ := s.runner.Progress(); completed != 0 {
		t.Fatalf("%d queued simulations ran to completion after the client disconnected", completed)
	}
	// Everything the request spawned — handler, simulation goroutines,
	// connection read loops — must be gone.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after disconnect: %d before, %d now\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeResultLookup: a computed fingerprint resolves to its stored
// envelope; unknown and malformed fingerprints are 404s.
func TestServeResultLookup(t *testing.T) {
	ts := testServer(t, t.TempDir())
	ran := postRun(t, ts, `{"Benchmark":"mcf","Scheme":"deact-n"}`)

	resp, err := http.Get(ts.URL + "/result/" + ran.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /result: %d", resp.StatusCode)
	}
	var e struct {
		Model, Fingerprint string
		Result             json.RawMessage
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Fingerprint != ran.Fingerprint || e.Model == "" {
		t.Fatalf("entry envelope incomplete: %+v", e)
	}
	if !bytes.Equal(e.Result, ran.Result) {
		t.Fatal("stored result differs from the served one")
	}

	for _, fp := range []string{strings.Repeat("0", 32), "not-a-fingerprint", "%2e%2e%2fescape"} {
		resp, err := http.Get(ts.URL + "/result/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /result/%s: %d, want 404", fp, resp.StatusCode)
		}
	}
}

// TestServeRejectsBadGeometry: cache, TLB and STU shapes, more cores per
// node than a cache hierarchy serves, node allocation ratios, DeACT
// translator sizes, prefetcher sizes and node counts beyond the ACM ID
// space that the simulator cannot build are client errors caught by
// validation, so /run answers 400 instead of failing the simulation with a
// 500 (or, for an overflowing prefetcher size, hanging a worker), and a
// sweep holding one fails whole before any point starts. A field the
// Config no longer has is an unknown field.
func TestServeRejectsBadGeometry(t *testing.T) {
	ts := testServer(t, t.TempDir())
	for _, body := range []string{
		`{"STUEntries":12,"STUWays":8}`,
		`{"STUEntries":768}`,
		`{"CoresPerNode":9}`,
		`{"Hierarchy":{"L1Ways":3}}`,
		`{"MMU":{"L1Entries":24}}`,
		`{"LocalEveryN":0}`,
		`{"Scheme":"i-fam","LocalEveryN":-5}`,
		`{"Scheme":"deact-n","TranslationCacheBytes":100}`,
		`{"Scheme":"deact-w","TranslationCacheBytes":0}`,
		`{"Scheme":"deact-n","Outstanding":0}`,
		`{"PrefetchStreams":4611686018427387905}`,
		`{"PrefetchStreams":1073741825}`,
		`{"PrefetchStreams":64,"PrefetchThreshold":2147483648}`,
		`{"BrokerShards":2}`,
		`{"Nodes":63,"Layout":{"ACMBits":8}}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /run %s = %d, want 400", body, resp.StatusCode)
		}
		sweep := `{"Configs":[{"Benchmark":"mcf"},` + body + `]}`
		resp, err = http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(sweep))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /sweep with %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServeRejectsBadRequests pins the strict decode contract at the HTTP
// boundary: misspelled fields, bad scheme names, invalid configs and wrong
// methods are client errors, not simulations of the wrong system.
func TestServeRejectsBadRequests(t *testing.T) {
	ts := testServer(t, t.TempDir())
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown field", `{"Benchmrak":"mcf"}`},
		{"bad scheme", `{"Scheme":"fam-e"}`},
		{"invalid config", `{"Tenants":9999}`},
		{"trailing garbage", `{"Seed":1} {"Seed":2}`},
		{"not json", `seed=1`},
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /run = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{"Configs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep = %d, want 400", resp.StatusCode)
	}
	getRun, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	getRun.Body.Close()
	if getRun.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", getRun.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d", health.StatusCode)
	}
}
