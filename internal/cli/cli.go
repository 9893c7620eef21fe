// Package cli holds the flag groups the deact commands share, so every
// binary documents the same units for the same knob and picks up new
// shared flags (like -store) in one place instead of four.
//
// Three groups cover the surface:
//
//   - Scale: -warmup/-measure/-cores/-seed — how much work each simulated
//     core does and how wide a node is. Defaults differ per command (a
//     sweep trades steady-state sharpness for wall time; a single run does
//     not), so they are parameters, not constants.
//   - Runner: -benchmarks/-parallelism/-store — the knobs of
//     commands built on experiments.Runner. Options assembles an
//     experiments.Options from both groups, opening the persistent result
//     store when -store names a directory.
//   - Profiling: -cpuprofile/-memprofile — pprof output with one
//     start/flush discipline for every command.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"deact/internal/experiments"
	"deact/internal/resultstore"
	"deact/internal/workload"
)

// Scale holds the simulation-scale flags. Warmup and Measure are
// instruction counts per core — not cycles.
type Scale struct {
	Warmup  uint64
	Measure uint64
	Cores   int
	Seed    int64
}

// ScaleFlags registers -warmup/-measure/-cores/-seed on fs with the
// calling command's defaults. Names, units and help text are shared; only
// the defaults differ between commands.
func ScaleFlags(fs *flag.FlagSet, warmup, measure uint64, cores int) *Scale {
	s := &Scale{}
	fs.Uint64Var(&s.Warmup, "warmup", warmup, "warmup instructions per core (instruction count, not cycles)")
	fs.Uint64Var(&s.Measure, "measure", measure, "measured instructions per core (instruction count, not cycles)")
	fs.IntVar(&s.Cores, "cores", cores, "cores per node (at most 8)")
	fs.Int64Var(&s.Seed, "seed", 42, "random seed (drives placement, workloads and replacement; fixed seed = byte-identical output)")
	return s
}

// Runner holds the worker-pool and caching flags of commands built on
// experiments.Runner.
type Runner struct {
	Benchmarks  string
	Parallelism int
	StoreDir    string
}

// RunnerFlags registers -benchmarks/-parallelism/-store.
func RunnerFlags(fs *flag.FlagSet) *Runner {
	r := &Runner{}
	fs.StringVar(&r.Benchmarks, "benchmarks", "", "comma-separated benchmark subset (default: all 14)")
	fs.IntVar(&r.Parallelism, "parallelism", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&r.StoreDir, "store", "", "persistent result-store directory: warm entries are served without simulating, cold runs are persisted for the next invocation (empty = no store)")
	return r
}

// Options assembles an experiments.Options from the parsed flag values,
// opening the persistent result store when -store was given. Output is
// byte-identical with and without a store; only the work changes. An
// unknown or repeated -benchmarks name is an error before anything runs.
func (r *Runner) Options(s *Scale) (experiments.Options, error) {
	opts := experiments.Options{Warmup: s.Warmup, Measure: s.Measure, Cores: s.Cores, Seed: s.Seed,
		Parallelism: r.Parallelism}
	if r.Benchmarks != "" {
		opts.Benchmarks = strings.Split(r.Benchmarks, ",")
		for i, b := range opts.Benchmarks {
			if _, err := workload.Get(b); err != nil {
				return experiments.Options{}, fmt.Errorf("-benchmarks: %w", err)
			}
			if slices.Contains(opts.Benchmarks[:i], b) {
				return experiments.Options{}, fmt.Errorf("-benchmarks: %q listed twice (have %v)", b, workload.Names())
			}
		}
	}
	if r.StoreDir != "" {
		st, err := resultstore.Open(r.StoreDir, 0)
		if err != nil {
			return experiments.Options{}, err
		}
		opts.Store = st
	}
	return opts, nil
}

// Profiling holds the pprof output flags.
type Profiling struct {
	CPU string
	Mem string
}

// ProfilingFlags registers -cpuprofile/-memprofile on fs. what names the
// workload in the help text ("the full sweep", "the full report run").
func ProfilingFlags(fs *flag.FlagSet, what string) *Profiling {
	p := &Profiling{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of "+what+" to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write an allocation profile taken after "+what+" to this file")
	return p
}

// Start begins CPU profiling if -cpuprofile was given; call the returned
// stop in a defer so the profile flushes on error paths too. The stop
// reports a close error on stderr under cmd, since stops run in defers.
func (p *Profiling) Start(cmd string) (stop func(), err error) {
	if p.CPU == "" {
		return func() {}, nil
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		}
	}, nil
}

// WriteHeap writes an allocation profile of the settled live heap if
// -memprofile was given; call it after the workload finished.
func (p *Profiling) WriteHeap() error {
	if p.Mem == "" {
		return nil
	}
	f, err := os.Create(p.Mem)
	if err != nil {
		return err
	}
	runtime.GC() // settle the live heap before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ProgressPrinter returns an OnRunDone hook that keeps one live
// completed/total line on w (the runner serializes calls). Runs answered
// from the persistent result store count like any completed run and are
// additionally surfaced as a running "(N cached)" tally, so a warm
// sweep's line shows where its speed came from.
func ProgressPrinter(w io.Writer) func(experiments.RunInfo) {
	cached := 0
	return func(ri experiments.RunInfo) {
		if ri.Cached {
			cached++
		}
		fmt.Fprintf(w, "\rruns: %d/%d completed", ri.Completed, ri.Submitted)
		if cached > 0 {
			fmt.Fprintf(w, " (%d cached)", cached)
		}
		if ri.Completed == ri.Submitted {
			fmt.Fprint(w, " ")
		}
	}
}
