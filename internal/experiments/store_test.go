package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"deact/internal/core"
	"deact/internal/resultstore"
)

// storeSweepConfigs is a mini sweep: distinct configs across schemes,
// benchmarks and tenancy, small enough for the -short tier.
func storeSweepConfigs(r *Runner) []core.Config {
	cfgs := []core.Config{
		r.config(core.IFAM, "mcf", nil),
		r.config(core.DeACTN, "mcf", nil),
		r.config(core.DeACTN, "sp", nil),
		r.config(core.DeACTN, "mcf", func(c *core.Config) { c.STUEntries = 512 }),
		r.config(core.IFAM, "mcf", func(c *core.Config) { c.CoresPerNode = 2; c.Tenants = 2 }),
	}
	return cfgs
}

func storeOptions(t *testing.T, dir string) Options {
	t.Helper()
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Warmup: 1_000, Measure: 2_000, Cores: 1, Seed: 42,
		Parallelism: 2, Store: st}
}

// TestRunnerWarmStoreRunsZeroSimulations is the acceptance gate for the
// persistent store: a repeated sweep against a warm store must perform
// zero simulations — proven by failing coreRun outright — with every
// progress-hook RunInfo marked Cached, and return results byte-identical
// to the cold run under the canonical encoding.
func TestRunnerWarmStoreRunsZeroSimulations(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	cold := New(storeOptions(t, dir))
	cfgs := storeSweepConfigs(cold)
	want, err := cold.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	cold.WaitIdle()

	// Warm pass: a fresh Runner and a fresh Store handle, as a new process
	// would hold. Any attempt to simulate fails the run — and the test.
	orig := coreRun
	coreRun = func(context.Context, core.Config, ...core.RunOption) (core.Result, error) {
		return core.Result{}, errors.New("simulated on a warm store")
	}
	defer func() { coreRun = orig }()

	var mu sync.Mutex
	var infos []RunInfo
	opts := storeOptions(t, dir)
	opts.OnRunDone = func(ri RunInfo) {
		mu.Lock()
		infos = append(infos, ri)
		mu.Unlock()
	}
	warm := New(opts)
	got, err := warm.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatalf("warm sweep simulated (or failed): %v", err)
	}
	warm.WaitIdle()

	if len(infos) != len(cfgs) {
		t.Fatalf("progress hook saw %d runs, want %d", len(infos), len(cfgs))
	}
	for _, ri := range infos {
		if !ri.Cached {
			t.Errorf("run %s/%v not served from the store", ri.Config.Benchmark, ri.Config.Scheme)
		}
	}
	for i := range want {
		we, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		ge, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(we, ge) {
			t.Errorf("config %d: warm result not byte-identical to cold run", i)
		}
	}
}

// TestRunnerColdStorePersists: a cold pass reports Cached=false and leaves
// every distinct result on disk.
func TestRunnerColdStorePersists(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var mu sync.Mutex
	cachedSeen := false
	opts := storeOptions(t, dir)
	opts.OnRunDone = func(ri RunInfo) {
		mu.Lock()
		cachedSeen = cachedSeen || ri.Cached
		mu.Unlock()
	}
	r := New(opts)
	cfgs := storeSweepConfigs(r)
	if _, err := r.RunAll(ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	r.WaitIdle()
	if cachedSeen {
		t.Fatal("cold pass reported a cached run")
	}
	st := opts.Store
	for i, cfg := range cfgs {
		if _, ok := st.Get(cfg); !ok {
			t.Errorf("config %d not persisted after the cold pass", i)
		}
	}
}

// TestRunnerStoreMixedWarmCold: a sweep mixing stored and unstored
// configs answers the stored ones from disk unchanged, simulates the rest
// and persists them.
func TestRunnerStoreMixedWarmCold(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cold := New(storeOptions(t, dir))
	cfgs := storeSweepConfigs(cold)
	want, err := cold.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	cold.WaitIdle()

	// Mixed pass: the cold pass's configs all hit; one config the cold
	// pass never ran must simulate alongside them.
	reopened := storeOptions(t, dir)
	fresh := cold.config(core.DeACTW, "mcf", nil)
	mixed := append(append([]core.Config{}, cfgs...), fresh)
	mixedRunner := New(reopened)
	got, err := mixedRunner.RunAll(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	mixedRunner.WaitIdle()
	for i := range want {
		we, _ := json.Marshal(want[i])
		ge, _ := json.Marshal(got[i])
		if !bytes.Equal(we, ge) {
			t.Errorf("config %d drifted across the mixed warm/cold pass", i)
		}
	}
	// And the miss was persisted: a third pass over everything is all hits.
	if _, ok := reopened.Store.Get(fresh); !ok {
		t.Fatal("mixed pass did not persist its one cold run")
	}
}

// TestSubmitValidatesBeforeIdentity: Fingerprint ignores the fields a
// scheme never reads, so an invalid E-FAM config (an STU geometry whose set
// count is not a power of two) shares its fingerprint with the valid
// default. Submitted after the valid run finished, the alias must fail
// with ErrInvalidConfig — on the same Runner, whose dedup map holds the
// valid run, and on a fresh Runner over a store that holds its result —
// and must never be answered by either.
func TestSubmitValidatesBeforeIdentity(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var mu sync.Mutex
	var infos []RunInfo
	opts := storeOptions(t, dir)
	opts.OnRunDone = func(ri RunInfo) {
		mu.Lock()
		infos = append(infos, ri)
		mu.Unlock()
	}
	r := New(opts)
	valid := r.config(core.EFAM, "mcf", nil)
	alias := r.config(core.EFAM, "mcf", func(c *core.Config) { c.STUEntries = 100 })
	if alias.Fingerprint() != valid.Fingerprint() {
		t.Fatal("the invalid alias does not share the valid config's fingerprint; nothing is tested")
	}
	if _, err := r.Run(ctx, valid); err != nil {
		t.Fatal(err)
	}
	r.WaitIdle()

	fresh := New(storeOptions(t, dir))
	if _, ok := fresh.opts.Store.Get(valid); !ok {
		t.Fatal("the store does not hold the valid result")
	}
	for name, runner := range map[string]*Runner{"same runner": r, "fresh runner over the store": fresh} {
		res, err := runner.Run(ctx, alias)
		if !errors.Is(err, core.ErrInvalidConfig) {
			t.Errorf("%s: invalid alias returned err %v (Instructions %d), want ErrInvalidConfig",
				name, err, res.Instructions)
		}
		runner.WaitIdle()
		if completed, submitted := runner.Progress(); completed != submitted || submitted > 1 {
			t.Errorf("%s: the invalid alias was registered: %d/%d runs", name, completed, submitted)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 1 {
		t.Errorf("progress hook saw %d runs, want only the valid one", len(infos))
	}
}
