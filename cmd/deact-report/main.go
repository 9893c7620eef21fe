// Command deact-report regenerates every table and figure of the paper's
// evaluation and writes the paper-vs-measured report (EXPERIMENTS.md).
//
// Usage:
//
//	deact-report -out EXPERIMENTS.md
//	deact-report -capacity             # append the multi-tenant capacity section
//	deact-report -prefetch             # append the prefetch-interaction section
//	deact-report -mlp                  # append the memory-level-parallelism section
//	deact-report -parallelism 8        # bound the simulation worker pool
//	deact-report -store .deact-store   # serve repeat runs from the persistent result store
//	deact-report -cpuprofile cpu.prof  # profile the hot simulation paths
//	deact-report -memprofile mem.prof  # allocation profile after the run
//
// Every additive (beyond-the-paper) entry of the experiments registry gets
// one bool flag named by its sweep name; `deact-report -h` lists them.
// Requested sections are appended after the base report in registry order.
//
// Independent simulations run concurrently on a worker pool of
// -parallelism slots (default: GOMAXPROCS). The report is byte-identical
// at every parallelism level for a given seed and scale.
//
// Progress (completed/total distinct simulations) streams to stderr.
// SIGINT/SIGTERM cancel the run gracefully: in-flight simulations abort at
// the next event-loop stride, the process exits nonzero, and no partial
// output file is written — the report is staged in memory and only lands
// on disk after it generated completely.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"deact/internal/cli"
	"deact/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "deact-report:", err)
		os.Exit(1)
	}
}

// run carries the whole report generation so defers (profile flush, signal
// teardown) execute on error paths too, instead of being skipped by
// os.Exit.
func run(ctx context.Context) error {
	fs := flag.CommandLine
	prof := cli.ProfilingFlags(fs, "the full report run")
	inv, err := parseArgs(fs, os.Args[1:])
	if err != nil {
		return err
	}

	stopCPU, err := prof.Start("deact-report")
	if err != nil {
		return err
	}
	defer stopCPU()

	inv.opts.OnRunDone = cli.ProgressPrinter(os.Stderr)
	if err := generate(ctx, inv.opts, inv.sections, inv.out); err != nil {
		return err
	}
	return prof.WriteHeap()
}

// invocation is what the report flags ask for.
type invocation struct {
	out      string
	opts     experiments.Options
	sections []string
}

// parseArgs registers the report flags on fs and parses args into the
// output path, the runner options and the requested additive sections.
func parseArgs(fs *flag.FlagSet, args []string) (invocation, error) {
	out := fs.String("out", "EXPERIMENTS.md", "output file (- for stdout)")
	// One bool flag per additive registry entry, named by its sweep name.
	sectionFlags := map[string]*bool{}
	for _, e := range experiments.Registry() {
		if e.Additive {
			sectionFlags[e.Sweep] = fs.Bool(e.Sweep, false,
				fmt.Sprintf("append the %s — %s section; strictly additive to the base report", e.ID, e.PaperRef))
		}
	}
	scale := cli.ScaleFlags(fs, 80_000, 60_000, 2)
	runner := cli.RunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return invocation{}, err
	}
	opts, err := runner.Options(scale)
	if err != nil {
		return invocation{}, err
	}
	inv := invocation{out: *out, opts: opts}
	for name, on := range sectionFlags {
		if *on {
			inv.sections = append(inv.sections, name)
		}
	}
	return inv, nil
}

// generate stages the whole report, plus the named additive sections, in
// memory and writes the output file only on success, so a cancelled or
// failed run never leaves a partial EXPERIMENTS.md behind.
func generate(ctx context.Context, opts experiments.Options, sections []string, outPath string) error {
	var buf bytes.Buffer
	err := experiments.Report(ctx, &buf, opts, sections...)
	if opts.OnRunDone != nil {
		fmt.Fprintln(os.Stderr) // terminate the progress line
	}
	if err != nil {
		return err
	}
	if outPath == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
