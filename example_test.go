package deact_test

import (
	"context"
	"fmt"
	"os"

	"deact/internal/core"
	"deact/internal/experiments"
)

// Example is the Runner tour the package documentation describes: build
// fully-specified core.Config values, submit them (identity and
// deduplication come from Config.Fingerprint()), stream progress through
// Options.OnRunDone, and wait on the futures. It compiles against the
// current experiments.Options and core.Config fields, so the documented
// API cannot drift from the real one. (No Output comment: a simulation
// at documentation scale is deliberately not run on every test
// invocation; examples/quickstart is the runnable version, executed by
// the CI examples-smoke step.)
func Example() {
	ctx := context.Background()
	runner := experiments.New(experiments.Options{
		Warmup:      80_000, // per-core instructions before measurement
		Measure:     60_000, // per-core measured instructions
		Cores:       2,      // cores per node
		Seed:        42,     // drives all randomness, end to end
		Parallelism: 0,      // worker-pool slots; 0 = GOMAXPROCS, 1 = serial
		OnRunDone: func(ri experiments.RunInfo) {
			fmt.Fprintf(os.Stderr, "\r%d/%d", ri.Completed, ri.Submitted)
		},
	})
	defer runner.WaitIdle()

	// Submit both schemes at once; equal fingerprints would share one
	// simulation, and each worker slot recycles construction memory
	// (core.SystemPool) across the runs it executes.
	var futures []*experiments.Future
	for _, scheme := range []core.Scheme{core.IFAM, core.DeACTN} {
		cfg := core.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Benchmark = "mcf"
		futures = append(futures, runner.Submit(ctx, cfg))
	}
	var results []core.Result
	for _, fut := range futures {
		r, err := fut.Wait() // returns this waiter's ctx.Err() if cancelled
		if err != nil {
			panic(err)
		}
		results = append(results, r)
	}
	fmt.Printf("DeACT-N speedup over I-FAM: %.2fx\n", results[1].Speedup(results[0]))
}
