package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deact/internal/core"
	"deact/internal/experiments"
	"deact/internal/resultstore"
)

// record is one simulation the benchmark ran itself through
// core.NewSystem and System.Run, with its host spans.
type record struct {
	cfg   core.Config
	res   core.Result
	err   error
	fired uint64 // Engine.Fired() after the run, warmup events included
	build time.Duration
	run   time.Duration
}

// unit is one repetition of a workload's timed work: one run for the
// single-run workloads, one cold Runner pass over the grid for the sweep.
type unit struct {
	wall   time.Duration
	alloc  uint64  // heap bytes allocated
	rssMB  float64 // peak resident memory while it ran; 0 if unknown
	events uint64
	instrs uint64
}

// bench drives one workload. It is built per invocation and not shared.
type bench struct {
	w    *workload
	seed int64
	cfgs []core.Config // the sweep grid; a single-run workload's first config
	par  int
	tmp  string
	chk  *checker

	refs    []record // sweep: the reference pass, one record per config
	passes  int      // sweep: cold passes so far (names each pass's store)
	records []record // single-run: every timed run
	units   []unit
	cals    []float64 // calibration kernel seconds, one before each unit
	hitsUS  []float64 // per-Future latencies of warm-pass store hits
}

func newBench(w *workload, seed int64, tmp string, chk *checker) *bench {
	return &bench{w: w, seed: seed, cfgs: w.configs(seed), par: runtime.GOMAXPROCS(0), tmp: tmp, chk: chk}
}

// prepare does the untimed work that precedes the timed loop. For the
// sweep that is the reference pass: every config once through
// core.NewSystem/System.Run on par goroutines, which gives the event
// counts the Runner hides, the construction and run spans, and the
// results every later pass must reproduce.
func (b *bench) prepare(ctx context.Context) {
	if !b.w.sweep || b.refs != nil {
		return
	}
	b.refs = make([]record, len(b.cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < b.par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.cfgs) {
					return
				}
				b.refs[i] = simulate(ctx, b.cfgs[i])
			}
		}()
	}
	wg.Wait()
	res := make([]core.Result, len(b.refs))
	for i, r := range b.refs {
		b.chk.observe(r.cfg, r.res, r.err)
		res[i] = r.res
	}
	b.chk.checkOrdering(b.cfgs, res)
}

// simulate runs cfg once through the public construction and run calls.
func simulate(ctx context.Context, cfg core.Config) record {
	rec := record{cfg: cfg}
	t0 := time.Now()
	s, err := core.NewSystem(cfg)
	t1 := time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.res, rec.err = s.Run(ctx)
	t2 := time.Now()
	rec.fired = s.Engine().Fired()
	rec.build, rec.run = t1.Sub(t0), t2.Sub(t1)
	return rec
}

// minUnits is the fewest repetitions a timed loop makes, however long
// they take, so every median has at least this many samples.
const minUnits = 3

// loop repeats the workload's unit until budget has passed.
func (b *bench) loop(ctx context.Context, budget time.Duration) error {
	w := b.w
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start) < budget; n++ {
		b.cals = append(b.cals, calibrate().Seconds())
		if w.sweep {
			if err := b.sweepUnit(ctx); err != nil {
				return err
			}
		} else {
			b.singleUnit(ctx, w.configs(subSeed(b.seed, n))[0])
		}
	}
	return nil
}

// singleUnit times one construction and run of cfg.
func (b *bench) singleUnit(ctx context.Context, cfg core.Config) {
	var m0, m1 runtime.MemStats
	quiesce(&m0)
	rec := simulate(ctx, cfg)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	b.chk.observe(cfg, rec.res, rec.err)
	if rec.err != nil {
		return
	}
	b.records = append(b.records, rec)
	b.units = append(b.units, unit{wall: rec.build + rec.run, alloc: m1.TotalAlloc - m0.TotalAlloc,
		rssMB: rss, events: rec.fired, instrs: instructions(cfg)})
}

// quiesce collects the heap and returns its free memory to the OS, then
// restarts the kernel's peak-RSS count, so every unit starts from the same
// heap and reports its own peak; m receives the allocation count to diff.
func quiesce(m *runtime.MemStats) {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM; without it peakRSSMB reports
	// the process peak so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	runtime.ReadMemStats(m)
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// reset; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// sweepUnit times one cold Runner pass over the grid against an empty
// store, then makes the warm pass against the store it filled, in which
// every run must be a store hit; the warm per-Future latencies are the hit
// samples.
func (b *bench) sweepUnit(ctx context.Context) error {
	dir := filepath.Join(b.tmp, fmt.Sprintf("store-%d", b.passes))
	b.passes++
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	quiesce(&m0)
	cold := runnerPass(ctx, b.cfgs, st, b.par)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	b.warmPass(ctx, b.cfgs, st)

	var events, instrs uint64
	for i, cfg := range b.cfgs {
		events += b.refs[i].fired
		instrs += instructions(cfg)
		b.chk.observe(cfg, cold.res[i], cold.errs[i])
		if cold.errs[i] == nil && cold.cached[i] {
			b.chk.outcome(fmt.Errorf("%s: cold pass hit an empty store", label(cfg)))
		}
	}
	b.units = append(b.units, unit{wall: cold.wall, alloc: m1.TotalAlloc - m0.TotalAlloc, rssMB: rss,
		events: events, instrs: instrs})
	return nil
}

// pass is the outcome of one Runner batch.
type pass struct {
	res    []core.Result
	errs   []error
	cached []bool
	lat    []time.Duration // per Future: submission to result ready
	wall   time.Duration   // first submission to last result
}

// runnerPass submits every config to a fresh Runner backed by st and
// waits for all of them. A Future's latency runs from just before its
// Submit to the Runner's completion callback for it.
func runnerPass(ctx context.Context, cfgs []core.Config, st *resultstore.Store, par int) pass {
	n := len(cfgs)
	p := pass{res: make([]core.Result, n), errs: make([]error, n), cached: make([]bool, n), lat: make([]time.Duration, n)}
	byFP := make(map[string][]int, n)
	for i, cfg := range cfgs {
		fp := cfg.Fingerprint()
		byFP[fp] = append(byFP[fp], i)
	}
	sub := make([]time.Time, n)
	done := make([]time.Time, n)
	r := experiments.New(experiments.Options{Parallelism: par, Store: st,
		OnRunDone: func(info experiments.RunInfo) {
			now := time.Now()
			for _, i := range byFP[info.Fingerprint] {
				done[i], p.cached[i] = now, info.Cached
			}
		}})
	futs := make([]*experiments.Future, n)
	t0 := time.Now()
	for i, cfg := range cfgs {
		sub[i] = time.Now()
		futs[i] = r.Submit(ctx, cfg)
	}
	for i, f := range futs {
		p.res[i], p.errs[i] = f.Wait()
	}
	p.wall = time.Since(t0)
	r.WaitIdle()
	for i := range cfgs {
		p.lat[i] = done[i].Sub(sub[i])
	}
	return p
}

// warmPass submits cfgs, every one already stored in st, as one batch to
// a fresh Runner. Each Future must be a store hit that reproduces its
// run; its latency is one hit sample. A batch's latencies average over
// many lookups, which keeps their percentiles steady where closed-loop
// samples of one lookup flip between the host's fast and slow spells.
func (b *bench) warmPass(ctx context.Context, cfgs []core.Config, st *resultstore.Store) {
	warm := runnerPass(ctx, cfgs, st, b.par)
	for i, cfg := range cfgs {
		b.chk.observe(cfg, warm.res[i], warm.errs[i])
		if warm.errs[i] == nil && !warm.cached[i] {
			b.chk.outcome(fmt.Errorf("%s: warm pass simulated instead of hitting the store", label(cfg)))
		}
		b.hitsUS = append(b.hitsUS, float64(warm.lat[i].Nanoseconds())/1e3)
	}
}

// A single-run workload's warm passes each submit the configs of its
// first hitBatch timed runs, hitBatches times: at least 200 samples, so
// the 90th percentile has 20 beyond it, and a batch size that does not
// grow with the number of runs a host fits into the budget.
const hitBatch, hitBatches = 16, 25

// singleHits stores the first hitBatch results of the timed runs and
// makes hitBatches warm passes over their configs.
func (b *bench) singleHits(ctx context.Context) error {
	recs := b.records[:min(len(b.records), hitBatch)]
	st, err := resultstore.Open(filepath.Join(b.tmp, "hits"), 0)
	if err != nil {
		return err
	}
	cfgs := make([]core.Config, len(recs))
	for i, r := range recs {
		if err := st.Put(r.cfg, r.res); err != nil {
			return err
		}
		cfgs[i] = r.cfg
	}
	for k := 0; k < hitBatches && len(cfgs) > 0; k++ {
		b.warmPass(ctx, cfgs, st)
	}
	return nil
}

// repeatFirst simulates the first timed run's config once more, untimed:
// a deterministic simulator must reproduce its result exactly.
func (b *bench) repeatFirst(ctx context.Context) {
	if len(b.records) == 0 {
		return
	}
	rec := simulate(ctx, b.records[0].cfg)
	b.chk.observe(rec.cfg, rec.res, rec.err)
}
