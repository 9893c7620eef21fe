// Package experiments regenerates every table and figure of the paper's
// evaluation (§II-D motivation, §V results, §V-D sensitivity) from the
// simulator. Each experiment returns a stats.Table whose series mirror the
// corresponding figure's bars or lines; cmd/deact-report renders them all
// into EXPERIMENTS.md.
//
// The Runner is the only scheduler: callers submit fully-built
// core.Config values, identity is Config.Fingerprint() alone, equal
// configs share one simulation, and a worker pool runs distinct ones
// concurrently — each slot holding a core.SystemPool that recycles
// construction memory between the runs it executes. Invariant: report
// output is byte-identical at every Parallelism setting for a fixed seed
// (results are assembled in submission order, and each simulation is
// deterministic given its config).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"deact/internal/core"
	"deact/internal/resultstore"
	"deact/internal/sim"
	"deact/internal/workload"
)

// Options controls experiment scale. The defaults trade a little noise for
// tractable single-machine runtimes; raising Warmup/Measure sharpens every
// rate toward its steady-state value.
type Options struct {
	// Warmup and Measure are per-core instruction budgets.
	Warmup  uint64
	Measure uint64
	// Cores per node (the paper uses 4; 2 halves runtime with the same
	// qualitative behaviour).
	Cores int
	// Seed drives all randomness.
	Seed int64
	// Benchmarks restricts the benchmark set (default: all 14).
	Benchmarks []string
	// Parallelism bounds how many core.Run simulations execute
	// concurrently. 0 (the default) means runtime.GOMAXPROCS(0); 1
	// reproduces a strictly-serial runner. Results and
	// CachedRuns() are identical at every setting: runs are
	// deduplicated singleflight-style and assembled in submission
	// order, and each simulation is deterministic given its config.
	Parallelism int
	// OnRunDone, if set, observes progress: it is called once after each
	// distinct simulation finishes (cancelled runs excluded), with the
	// runner-wide completed/submitted counters of that moment. Calls are
	// serialized; the hook must not call back into the Runner.
	OnRunDone func(RunInfo)
	// SteadyBenchmark is the workload the steady tenants run in the
	// capacity sweep ("sp" if empty).
	SteadyBenchmark string
	// NoisyBenchmark is the workload the noisy tenant (tenant 0 on every
	// node) runs in the capacity sweep ("canl" if empty).
	NoisyBenchmark string
	// Store, if set, backs the runner with a persistent content-addressed
	// result cache: a submitted config whose result is already stored is
	// answered from disk immediately — without taking a worker slot or
	// simulating — and every distinct simulation that completes is
	// persisted for future runners. Stored results are byte-identical to
	// simulated ones (the store round-trips the canonical Result encoding
	// exactly), so report and sweep output is unchanged by a store, warm
	// or cold. Persist failures are swallowed: the store is a cache, and
	// a failed write only costs a future miss.
	Store *resultstore.Store
}

// RunInfo describes one completed distinct simulation for the OnRunDone
// progress hook.
type RunInfo struct {
	// Config is the configuration that ran; Fingerprint its identity.
	Config      core.Config
	Fingerprint string
	// Err is the simulation error, if any.
	Err error
	// Cached reports that the result was served from Options.Store
	// without simulating (it still counts toward Completed).
	Cached bool
	// Completed and Submitted are the runner-wide counters at the moment
	// this run finished: distinct simulations done vs registered so far.
	Completed, Submitted int
}

// benchmarks returns the effective benchmark list.
func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

// parallelism returns the effective worker-pool size.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runEntry is the singleflight slot for one distinct configuration,
// identified by core.Config.Fingerprint(): the first submitter starts the
// computation, everyone else waits on done. The computation runs under its
// own context (cancel) that is detached from any single waiter: it fires
// only once every attached waiter has detached, so one caller backing out
// cannot abort a simulation another caller still wants.
type runEntry struct {
	cfg    core.Config
	fp     string
	done   chan struct{} // closed when res/err are valid
	res    core.Result
	err    error
	cancel context.CancelFunc

	// Guarded by Runner.mu.
	waiters  int
	finished bool
	// doomed is set the moment the last waiter detaches from an
	// unfinished entry — before cancel fires — so a concurrent Submit
	// never attaches to a computation that is about to be aborted.
	doomed bool
}

// Runner schedules simulation runs for the figure and table generators.
// Callers submit fully-built core.Config values; requests are deduplicated
// by Config.Fingerprint() — run identity is derived from the configuration
// itself, so two distinct configs can never alias one cache slot and two
// equal configs always share one simulation — and executed by a worker
// pool of Options.Parallelism slots so independent runs overlap.
type Runner struct {
	opts Options
	// sem holds the worker-pool slots: at most cap(sem) simulations in
	// flight. Each slot carries a core.SystemPool (created lazily, nil
	// until first used), so consecutive runs on a slot recycle the same
	// construction memory while concurrent runs never share a pool.
	sem chan *core.SystemPool
	wg  sync.WaitGroup

	mu        sync.Mutex
	runs      map[string]*runEntry
	submitted int
	completed int

	cbMu sync.Mutex // serializes OnRunDone callbacks
}

// New builds a runner.
func New(opts Options) *Runner {
	if opts.Cores <= 0 {
		opts.Cores = 2
	}
	if opts.Measure == 0 {
		opts.Measure = 60_000
	}
	par := opts.parallelism()
	r := &Runner{
		opts: opts,
		sem:  make(chan *core.SystemPool, par),
		runs: map[string]*runEntry{},
	}
	for i := 0; i < par; i++ {
		r.sem <- nil // empty slot; its pool is created on first acquisition
	}
	return r
}

// Future is a handle to one submitted simulation. Wait blocks until the
// shared computation finishes or the submitting context is cancelled —
// whichever comes first — so deduplicated waiters unblock with their own
// ctx.Err() without tearing down a computation other waiters share.
type Future struct {
	r   *Runner
	e   *runEntry
	ctx context.Context
	rel sync.Once
}

// Submit registers cfg for execution and returns its Future. Identical
// configurations (by Fingerprint) share one simulation. The worker pool
// stops admitting the run if every attached waiter's context is cancelled
// before a slot frees up, and an admitted run observes cancellation inside
// core.Run's event loop once the last waiter detaches.
//
// cfg is validated before its identity is taken: Fingerprint ignores the
// fields a scheme never reads, so an invalid config can share a valid
// one's fingerprint. It must fail on its own, not join that run's flight
// or hit its store entry, so an invalid cfg gets an already-failed Future
// (wrapping core.ErrInvalidConfig) and is never registered.
func (r *Runner) Submit(ctx context.Context, cfg core.Config) *Future {
	if err := cfg.Validate(); err != nil {
		done := make(chan struct{})
		close(done)
		e := &runEntry{cfg: cfg, done: done, cancel: func() {}, waiters: 1, finished: true,
			err: fmt.Errorf("experiments: %s under %v: %w", cfg.Benchmark, cfg.Scheme, err)}
		return &Future{r: r, e: e, ctx: ctx}
	}
	fp := cfg.Fingerprint()
	r.mu.Lock()
	// Attach to a live entry — or to a doomed one that nevertheless
	// finished successfully before its cancel landed (done is closed and
	// the cached result is valid, so re-simulating would be waste).
	if e, ok := r.runs[fp]; ok && (!e.doomed || (e.finished && e.err == nil)) {
		e.waiters++
		r.mu.Unlock()
		return &Future{r: r, e: e, ctx: ctx}
	}
	// Either no entry, or a doomed one whose last waiter just detached:
	// register a fresh entry in its place (the doomed run's finish only
	// evicts the slot if it still owns it).
	ectx, cancel := context.WithCancel(context.Background())
	e := &runEntry{cfg: cfg, fp: fp, done: make(chan struct{}), cancel: cancel, waiters: 1}
	r.runs[fp] = e
	r.submitted++
	r.mu.Unlock()

	r.wg.Add(1)
	go r.execute(ectx, e)
	return &Future{r: r, e: e, ctx: ctx}
}

// Run submits cfg and waits for its result — the one-shot convenience
// around Submit for callers that need a single simulation.
func (r *Runner) Run(ctx context.Context, cfg core.Config) (core.Result, error) {
	return r.Submit(ctx, cfg).Wait()
}

// Wait blocks until the simulation finishes or the context passed to
// Submit is cancelled, in which case it returns ctx.Err() immediately —
// the in-flight computation keeps running as long as any other waiter
// remains attached, and is cancelled once the last one detaches.
func (f *Future) Wait() (core.Result, error) {
	select {
	case <-f.e.done:
		f.release()
		return f.e.res, f.e.err
	case <-f.ctx.Done():
		f.release()
		return core.Result{}, f.ctx.Err()
	}
}

// Release detaches this future from its entry without waiting for the
// result. It is the abandonment path for callers that stop consuming
// futures mid-batch (a streaming client that disconnected): the last
// future to detach from an unfinished computation cancels it. Safe to call
// after Wait — detachment happens exactly once either way.
func (f *Future) Release() { f.release() }

// release detaches this future from its entry exactly once; the last
// detaching future dooms an unfinished computation and cancels it. The
// doomed mark is taken under the same lock Submit attaches under, so a
// new waiter with a live context can never land on the dying entry.
func (f *Future) release() {
	f.rel.Do(func() {
		f.r.mu.Lock()
		f.e.waiters--
		fire := f.e.waiters == 0 && !f.e.finished
		if fire {
			f.e.doomed = true
		}
		f.r.mu.Unlock()
		if fire {
			f.e.cancel()
		}
	})
}

// execute runs one entry's simulation under the entry context: slot
// acquisition first (admission stops on cancellation), then core.Run.
func (r *Runner) execute(ectx context.Context, e *runEntry) {
	defer r.wg.Done()
	res, cached, err := r.compute(ectx, e.cfg, e.fp)
	r.finish(e, res, cached, err)
}

// compute acquires a worker slot and runs the simulation. A panic anywhere
// in the path is converted to an error for this and every deduplicated
// waiter, and the slot is released via defer, so a panicking run can
// neither leak a pool slot nor leave waiters blocked forever.
//
// With a Store configured, the persisted result — when present — is
// returned before any of that machinery engages: no worker slot, no
// simulation. cached reports that path.
func (r *Runner) compute(ectx context.Context, cfg core.Config, fp string) (res core.Result, cached bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s under %v: panic: %v", cfg.Benchmark, cfg.Scheme, p)
		}
	}()
	if r.opts.Store != nil {
		if hit, ok := r.opts.Store.Lookup(fp); ok {
			return hit.Result, true, nil
		}
	}
	var pool *core.SystemPool
	select {
	case pool = <-r.sem: // acquire a worker slot (and its memory pool)
	case <-ectx.Done():
		return core.Result{}, false, ectx.Err()
	}
	if pool == nil {
		pool = core.NewSystemPool()
	}
	defer func() { r.sem <- pool }() // release the worker slot
	res, err = coreRun(ectx, cfg, core.WithPool(pool))
	if err != nil && !isCancellation(err) {
		err = fmt.Errorf("experiments: %s under %v [cfg %s]: %w", cfg.Benchmark, cfg.Scheme, fp[:8], err)
	}
	if err == nil && r.opts.Store != nil {
		// Best-effort persistence: a failed write costs a future miss,
		// nothing else, and must not fail a simulation that succeeded.
		_ = r.opts.Store.PutAs(fp, cfg, res)
	}
	return res, false, err
}

// finish publishes the entry's result. Cancelled entries are evicted from
// the dedup cache (a later Submit under a live context retries them) and
// do not count as completed work for the progress hook.
//
// cbMu is taken around both the counter update and the hook invocation
// (it nests outside r.mu and is touched nowhere else), so two
// concurrently finishing runs deliver their RunInfos in counter order —
// the progress line can never count backwards.
func (r *Runner) finish(e *runEntry, res core.Result, cached bool, err error) {
	cancelled := isCancellation(err)
	r.cbMu.Lock()
	r.mu.Lock()
	e.res, e.err = res, err
	e.finished = true
	if cancelled {
		// A doomed entry may already have been replaced by a fresh
		// submission; evict the slot only if this run still owns it.
		if r.runs[e.fp] == e {
			delete(r.runs, e.fp)
		}
		r.submitted--
	} else {
		r.completed++
	}
	info := RunInfo{Config: e.cfg, Fingerprint: e.fp, Err: err, Cached: cached,
		Completed: r.completed, Submitted: r.submitted}
	cb := r.opts.OnRunDone
	r.mu.Unlock()
	// The hook fires before done closes: when a waiter unblocks, its run's
	// progress callback has already been delivered.
	if cb != nil && !cancelled {
		cb(info)
	}
	r.cbMu.Unlock()
	close(e.done)
	e.cancel() // release the entry context's resources
}

// coreRun is the simulation entry point; a variable so tests can inject
// panics and delays behind the Submit/Wait API.
var coreRun = core.Run

// isCancellation reports whether err is a context cancellation rather than
// a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WaitIdle blocks until every in-flight simulation goroutine has exited.
// After a cancellation it bounds shutdown: admitted runs abort at the next
// event-loop stride, so the pool drains in well under a second.
func (r *Runner) WaitIdle() { r.wg.Wait() }

// Progress returns the runner-wide counters: distinct simulations
// completed and submitted so far.
func (r *Runner) Progress() (completed, submitted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.completed, r.submitted
}

// baseConfig derives the core config for one benchmark/scheme pair.
func (r *Runner) baseConfig(scheme core.Scheme, bench string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = bench
	cfg.CoresPerNode = r.opts.Cores
	cfg.WarmupInstructions = r.opts.Warmup
	cfg.MeasureInstructions = r.opts.Measure
	cfg.Seed = r.opts.Seed
	return cfg
}

// config builds the fully-mutated configuration for one run request. The
// mutation is applied at request-build time, so run identity is carried by
// the resulting config value alone — there is no key for it to drift from.
func (r *Runner) config(scheme core.Scheme, bench string, mutate func(*core.Config)) core.Config {
	cfg := r.baseConfig(scheme, bench)
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// perBenchmark evaluates metric for every benchmark under scheme with the
// default parameters, running the simulations concurrently.
func (r *Runner) perBenchmark(ctx context.Context, scheme core.Scheme, metric func(core.Result) float64) ([]float64, error) {
	rows, err := r.perBenchmarkSchemes(ctx, []core.Scheme{scheme}, metric)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// perBenchmarkSchemes evaluates metric for every benchmark under each
// scheme, submitting the whole scheme×benchmark grid as one batch so all
// runs overlap. Row i corresponds to schemes[i] in benchmark order.
func (r *Runner) perBenchmarkSchemes(ctx context.Context, schemes []core.Scheme, metric func(core.Result) float64) ([][]float64, error) {
	benches := r.opts.benchmarks()
	var cfgs []core.Config
	for _, s := range schemes {
		for _, b := range benches {
			cfgs = append(cfgs, r.config(s, b, nil))
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(schemes))
	for i := range schemes {
		row := make([]float64, len(benches))
		for j := range benches {
			row[j] = metric(res[i*len(benches)+j])
		}
		out[i] = row
	}
	return out, nil
}

// sensitivityGroups returns the grouping the paper uses for §V-D: geomeans
// of the SPEC, PARSEC and GAP suites plus pf and dc individually (§V-D:
// "dc is the only [NPB] benchmark which has significant performance impact").
func (r *Runner) sensitivityGroups() []sensGroup {
	suites := workload.Suites()
	in := func(names []string) []string {
		set := map[string]bool{}
		for _, b := range r.opts.benchmarks() {
			set[b] = true
		}
		var out []string
		for _, n := range names {
			if set[n] {
				out = append(out, n)
			}
		}
		return out
	}
	return []sensGroup{
		{"SPEC", in(suites["SPEC 2006"])},
		{"PARSEC", in(suites["PARSEC"])},
		{"GAP", in(suites["GAP"])},
		{"pf", in([]string{"pf"})},
		{"dc", in([]string{"dc"})},
	}
}

type sensGroup struct {
	name    string
	members []string
}

// Options returns the runner options.
func (r *Runner) Options() Options { return r.opts }

// CachedRuns reports how many distinct simulations the runner has
// completed successfully — identical at every Parallelism setting thanks
// to the fingerprint-keyed deduplication.
func (r *Runner) CachedRuns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.runs {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// nsLabel formats a fabric latency for figure x-labels. Non-integer values
// keep their fractional part (1500ns is "1.5us", not a truncated "1us").
func nsLabel(t sim.Time) string {
	if t >= sim.US(1) {
		return fmt.Sprintf("%gus", float64(t)/float64(sim.Microsecond))
	}
	return fmt.Sprintf("%gns", float64(t)/float64(sim.Nanosecond))
}
