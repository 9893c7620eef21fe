// Quickstart: run one memory-intensive benchmark under all four FAM
// virtual-memory schemes and compare them the way the paper's Figure 12
// does — performance normalized to the insecure E-FAM upper bound.
//
// This is also the Runner API tour: build core.Config values, Submit them
// (identical configs deduplicate by Config.Fingerprint()), watch progress
// through Options.OnRunDone, and wait on the returned futures. Ctrl-C
// cancels the in-flight simulations gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"deact/internal/core"
	"deact/internal/experiments"
)

func main() {
	var (
		bench   = flag.String("bench", "mcf", "benchmark to run")
		warmup  = flag.Uint64("warmup", 60_000, "warmup instructions per core")
		measure = flag.Uint64("measure", 50_000, "measured instructions per core")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("DeACT quickstart — %s on a scaled Table II system\n\n", *bench)

	// The Runner schedules simulations on a worker pool (default:
	// GOMAXPROCS) and reports progress as each distinct run completes.
	// Scale lives on the configs below; Options only wires the hook here.
	runner := experiments.New(experiments.Options{
		OnRunDone: func(ri experiments.RunInfo) {
			fmt.Fprintf(os.Stderr, "\rsimulated %d/%d", ri.Completed, ri.Submitted)
		},
	})
	defer runner.WaitIdle()

	// Submit all four schemes at once; the futures resolve as the pool
	// drains. Run identity is the config fingerprint — submitting the same
	// config twice would share one simulation.
	futures := map[core.Scheme]*experiments.Future{}
	for _, scheme := range core.Schemes() {
		cfg := core.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Benchmark = *bench
		cfg.CoresPerNode = 2
		cfg.WarmupInstructions = *warmup
		cfg.MeasureInstructions = *measure
		futures[scheme] = runner.Submit(ctx, cfg)
	}
	results := map[core.Scheme]core.Result{}
	for scheme, fut := range futures {
		r, err := fut.Wait()
		if err != nil {
			log.Fatalf("\n%v: %v", scheme, err)
		}
		results[scheme] = r
	}
	fmt.Fprintln(os.Stderr)

	base := results[core.EFAM]
	fmt.Printf("%-8s  %8s  %12s  %10s  %10s  %10s\n",
		"scheme", "IPC", "vs E-FAM", "AT@FAM", "xlate-hit", "acm-hit")
	for _, scheme := range core.Schemes() {
		r := results[scheme]
		fmt.Printf("%-8s  %8.4f  %11.2fx  %9.1f%%  %9.1f%%  %9.1f%%\n",
			scheme, r.IPC, r.Speedup(base), r.ATFraction*100,
			r.TranslationHitRate*100, r.ACMHitRate*100)
	}

	n := results[core.DeACTN]
	i := results[core.IFAM]
	fmt.Printf("\nDeACT-N speeds up the secure baseline (I-FAM) by %.2fx on %s\n",
		n.Speedup(i), *bench)
	fmt.Println("while keeping system-level access control (unlike E-FAM).")
}
