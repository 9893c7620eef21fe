// Command deact-serve exposes the simulator as a long-lived HTTP/JSON
// service in front of the persistent result store: repeat queries for a
// configuration are answered from disk without simulating, and misses are
// scheduled on the same experiments.Runner the batch commands use.
//
// Usage:
//
//	deact-serve -addr localhost:8371 -store .deact-store
//	curl -s localhost:8371/run -d '{"Benchmark":"mcf","Scheme":"deact-n"}'
//
// Endpoints:
//
//	POST /run                  one configuration → {Fingerprint, Cached, Result}
//	POST /sweep                {"Configs":[...]} → NDJSON, one line per config
//	                           in submission order, streamed as results land
//	                           (at most 1024 configs per request)
//	GET  /result/{fingerprint} stored entry for a fingerprint (404 on miss)
//	GET  /healthz              liveness probe
//
// Request bodies are sparse configurations: absent fields keep the
// server's defaults (core.DefaultConfig overlaid with the -warmup,
// -measure, -cores and -seed flags), so `{}` runs the default system and
// `{"Scheme":"i-fam"}` changes exactly one knob. Unknown fields are
// rejected — a dropped field would simulate the wrong system under the
// wrong identity. Every response carries the configuration's fingerprint,
// the same identity the store, the Runner and the golden report use.
//
// Cached reports that the result was served from the -store directory
// without simulating. Cached or not, result bytes are identical — the
// store round-trips the canonical encoding exactly. Without -store the
// service still runs (and dedups in memory); it just recomputes across
// restarts and answers every /result lookup with 404.
//
// SIGINT/SIGTERM stop the listener, cancel in-flight simulations at the
// next event-loop stride and exit after the worker pool drains.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deact/internal/cli"
	"deact/internal/core"
	"deact/internal/experiments"
	"deact/internal/resultstore"
)

// maxRequestBytes bounds request bodies; the largest legitimate request —
// a full sweep of complete configs — is well under a megabyte.
const maxRequestBytes = 1 << 20

// maxSweepConfigs caps the configs one /sweep may submit. The body limit
// alone admits ~80k distinct one-field configs, each a full simulation.
// The largest experiment-registry sweep (Figure 15 over all 14 benchmarks:
// 7 latencies × 14 × 2 schemes) submits 196, so the cap leaves every
// registry sweep room to grow while keeping one request's work bounded.
const maxSweepConfigs = 1024

// Connection bounds against slow or idle clients. A client must finish
// its request headers within readHeaderTimeout, and a keep-alive
// connection is closed after idleTimeout without a request. Neither
// bounds a handler: a /sweep may stream for as long as it simulates.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "deact-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	addr := flag.String("addr", "localhost:8371", "listen address")
	scale := cli.ScaleFlags(flag.CommandLine, 80_000, 60_000, 2)
	runnerFlags := cli.RunnerFlags(flag.CommandLine)
	flag.Parse()

	opts, err := runnerFlags.Options(scale)
	if err != nil {
		return err
	}
	s := newServer(opts)
	srv := s.httpServer(*addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "deact-serve: listening on %s (store: %s)\n", *addr, storeLabel(runnerFlags.StoreDir))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(sctx) // stops the listener, waits for handlers
	s.runner.WaitIdle()
	return err
}

func storeLabel(dir string) string {
	if dir == "" {
		return "none"
	}
	return dir
}

// server answers the HTTP API from the store when it can and from the
// Runner when it must. base is the configuration sparse requests overlay.
type server struct {
	runner *experiments.Runner
	store  *resultstore.Store
	base   core.Config
}

// newServer builds the service from runner options: the same Options the
// batch commands assemble, including the opened store (may be nil).
func newServer(opts experiments.Options) *server {
	base := core.DefaultConfig()
	base.CoresPerNode = opts.Cores
	base.WarmupInstructions = opts.Warmup
	base.MeasureInstructions = opts.Measure
	base.Seed = opts.Seed
	return &server{runner: experiments.New(opts), store: opts.Store, base: base}
}

// httpServer wraps the API in an http.Server listening on addr, bounded
// against slow clients.
func (s *server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// mux routes the API.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /result/{fingerprint}", s.handleResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// runResponse is one answered configuration — the /run response body and
// the /sweep line format.
type runResponse struct {
	// Fingerprint is the configuration's content address.
	Fingerprint string
	// Cached reports the result was served from the persistent store.
	Cached bool
	// Result is the simulation result; absent when Error is set.
	Result *core.Result `json:",omitempty"`
	// Error is the simulation failure, if any (sweep lines only; a /run
	// failure is an HTTP error instead).
	Error string `json:",omitempty"`
}

// config overlays one sparse request body on the server's base
// configuration and validates it.
func (s *server) config(raw []byte) (core.Config, error) {
	cfg := s.base
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return cfg, fmt.Errorf("config: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func (s *server) handleRun(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg, err := s.config(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := cfg.Fingerprint()
	resp := runResponse{Fingerprint: fp}
	if s.store != nil {
		if e, ok := s.store.Lookup(fp); ok {
			resp.Cached, resp.Result = true, &e.Result
			writeJSON(w, resp)
			return
		}
	}
	res, err := s.runner.Run(req.Context(), cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp.Result = &res
	writeJSON(w, resp)
}

// handleSweep validates every config up front (any bad one fails the whole
// request before work starts), submits them all to the Runner at once so
// distinct points overlap, and streams one NDJSON line per config in
// submission order as results land. A simulation failure becomes that
// line's Error field; the rest of the sweep keeps streaming.
func (s *server) handleSweep(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var sr struct{ Configs []json.RawMessage }
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch {
	case len(sr.Configs) == 0:
		http.Error(w, "empty sweep: provide Configs", http.StatusBadRequest)
		return
	case len(sr.Configs) > maxSweepConfigs:
		http.Error(w, fmt.Sprintf("sweep of %d configs exceeds the %d-config limit", len(sr.Configs), maxSweepConfigs),
			http.StatusBadRequest)
		return
	}
	cfgs := make([]core.Config, len(sr.Configs))
	for i, raw := range sr.Configs {
		cfg, err := s.config(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("config %d: %v", i, err), http.StatusBadRequest)
			return
		}
		cfgs[i] = cfg
	}
	// Cached is decided before any run starts: entries a cold point of this
	// very sweep persists mid-request still count as computed, not cached.
	cached := make([]bool, len(cfgs))
	if s.store != nil {
		for i := range cfgs {
			_, cached[i] = s.store.Lookup(cfgs[i].Fingerprint())
		}
	}
	futures := make([]*experiments.Future, len(cfgs))
	for i := range cfgs {
		futures[i] = s.runner.Submit(req.Context(), cfgs[i])
	}
	// If the stream aborts mid-sweep (client disconnect), the unconsumed
	// futures must still detach: a future this handler never Waits would
	// otherwise keep its simulation attached forever, so queued points of an
	// abandoned sweep would all run to completion. Release is idempotent, so
	// double-detaching the ones Wait already released is free.
	defer func() {
		for _, f := range futures {
			f.Release()
		}
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i, f := range futures {
		res, err := f.Wait()
		line := runResponse{Fingerprint: cfgs[i].Fingerprint(), Cached: cached[i]}
		if err != nil {
			line.Error = err.Error()
		} else {
			line.Result = &res
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; the deferred release detaches the rest
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *server) handleResult(w http.ResponseWriter, req *http.Request) {
	if s.store == nil {
		http.Error(w, "no result store configured (start with -store)", http.StatusNotFound)
		return
	}
	e, ok := s.store.Lookup(req.PathValue("fingerprint"))
	if !ok {
		http.Error(w, "unknown fingerprint", http.StatusNotFound)
		return
	}
	writeJSON(w, e)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
