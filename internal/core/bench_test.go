package core

import (
	"context"
	"testing"
)

// benchRunConfig is the BenchmarkCoreRun scale: one core, no warmup, a
// measured phase long enough that steady-state scheduling dominates system
// construction.
func benchRunConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = "mcf"
	cfg.CoresPerNode = 1
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 30_000
	return cfg
}

// BenchmarkCoreRun measures one full pooled run — the unit of work the
// experiment Runner schedules hundreds of times per report: each worker
// slot holds a SystemPool, so construction memory recycles across
// consecutive runs exactly as it does here. allocs/op and ns/op are the
// acceptance numbers for the allocation-free engine plus arena reuse (the
// first iteration populates the pool; steady state is what the counters
// converge to).
func BenchmarkCoreRun(b *testing.B) {
	for _, scheme := range []Scheme{IFAM, DeACTN} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := benchRunConfig(scheme)
			ctx := context.Background()
			pool := NewSystemPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ctx, cfg, WithPool(pool)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreRunOoO is BenchmarkCoreRun under the out-of-order timing
// model (32-entry window, 2-cycle scheduler). The OoO scheduler adds three
// scalar fields to the core and allocates nothing per instruction:
// allocs/op must converge to the same per-run bookkeeping floor as the
// in-order BenchmarkCoreRun, independent of the instruction count.
func BenchmarkCoreRunOoO(b *testing.B) {
	for _, scheme := range []Scheme{IFAM, DeACTN} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := benchRunConfig(scheme)
			cfg.CoreModel = CoreOoO
			cfg.WindowSize = 32
			cfg.SchedulerLatency = 2
			ctx := context.Background()
			pool := NewSystemPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ctx, cfg, WithPool(pool)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
