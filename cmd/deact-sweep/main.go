// Command deact-sweep runs one of the paper's sensitivity sweeps (§V-D)
// and prints the resulting series as a text table.
//
// Usage:
//
//	deact-sweep -sweep stu        # Figure 13: STU cache size
//	deact-sweep -sweep assoc      # §V-D1:     STU associativity
//	deact-sweep -sweep acm        # Figure 14: metadata width
//	deact-sweep -sweep pairs      # §V-D2:     DeACT-N pairs per way
//	deact-sweep -sweep fabric     # Figure 15: fabric latency
//	deact-sweep -sweep nodes      # Figure 16: node count
//	deact-sweep -sweep capacity   # capacity planning: per-tenant p99 vs scale
//	deact-sweep -sweep prefetch   # prefetch interaction: IPC vs prefetch degree
//	deact-sweep -sweep mlp        # memory-level parallelism: IPC vs OoO window size
//	deact-sweep -sweep nodes -cpuprofile cpu.prof -memprofile mem.prof
//	deact-sweep -sweep stu -store .deact-store   # serve repeat points from the persistent result store
//
// Each -sweep name selects one entry of the experiments registry;
// `deact-sweep -h` lists the valid names.
//
// The capacity sweep takes two extra knobs: -steady and -noisy name the
// benchmarks the steady tenants and the noisy tenant 0 run. Its grid
// (nodes × tenants) is fixed like the figure sweeps' points are.
//
// Every (scheme, benchmark, point) simulation of a sweep is independent;
// they run concurrently on a worker pool of -parallelism slots (default:
// GOMAXPROCS). Output is identical at every parallelism level.
// -cpuprofile/-memprofile profile the whole sweep, matching deact-report.
// Progress streams to stderr; SIGINT/SIGTERM cancel the sweep gracefully
// with a nonzero exit.
//
// Flag units match deact-sim: -warmup/-measure are instruction counts per
// core, not cycles. The defaults (60k/50k) are deliberately smaller than
// deact-report's (80k/60k): a sweep multiplies every point across schemes
// and benchmark groups, so it trades a little steady-state sharpness for
// tractable wall time. Sweep *points* (sizes, latencies, widths) are fixed
// by the corresponding figure and are not flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"deact/internal/cli"
	"deact/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "deact-sweep:", err)
		os.Exit(1)
	}
}

// run carries the whole sweep so defers (profile flush) execute on error
// paths too, instead of being skipped by os.Exit.
func run(ctx context.Context) error {
	var (
		sweep  = flag.String("sweep", "stu", "sweep to run: "+strings.Join(experiments.SweepNames(), ", "))
		steady = flag.String("steady", "sp", "capacity sweep: benchmark the steady tenants run")
		noisy  = flag.String("noisy", "canl", "capacity sweep: benchmark the noisy tenant 0 runs on every node")
	)
	// Warmup/measure default below deact-report's 80k/60k deliberately: a
	// sweep multiplies every point across schemes and benchmark groups.
	scale := cli.ScaleFlags(flag.CommandLine, 60_000, 50_000, 2)
	runnerFlags := cli.RunnerFlags(flag.CommandLine)
	prof := cli.ProfilingFlags(flag.CommandLine, "the full sweep")
	flag.Parse()

	// Usage errors exit 2 (before any profile is started), runtime
	// failures exit 1 — the same convention cmd/benchgate follows.
	exp, ok := experiments.Lookup(*sweep)
	if !ok {
		fmt.Fprintf(os.Stderr, "deact-sweep: unknown sweep %q (valid: %s)\n",
			*sweep, strings.Join(experiments.SweepNames(), ", "))
		os.Exit(2)
	}

	stopCPU, err := prof.Start("deact-sweep")
	if err != nil {
		return err
	}
	defer stopCPU()

	opts, err := runnerFlags.Options(scale)
	if err != nil {
		return err
	}
	opts.SteadyBenchmark, opts.NoisyBenchmark = *steady, *noisy
	opts.OnRunDone = cli.ProgressPrinter(os.Stderr)
	r := experiments.New(opts)
	defer r.WaitIdle()

	tbl, err := exp.Run(ctx, r)
	fmt.Fprintln(os.Stderr) // terminate the progress line
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	fmt.Printf("(%d simulation runs)\n", r.CachedRuns())

	return prof.WriteHeap()
}
