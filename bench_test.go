// Benchmark harness: one sub-benchmark of BenchmarkExperiments per entry
// of the experiments registry (every table and figure of the paper's
// evaluation plus the beyond-paper sweeps), plus micro-benchmarks of the
// hot simulator paths.
//
//	go test -bench=. -benchmem
//
// Each experiment sub-benchmark regenerates the corresponding rows/series
// through internal/experiments and reports a headline figure metric via
// b.ReportMetric, so `go test -bench=Experiments/Figure_12` is the
// programmatic equivalent of re-plotting the paper's Figure 12 (Go turns
// the spaces of a registry id into underscores).
package deact_test

import (
	"context"
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/broker"
	"deact/internal/cache"
	"deact/internal/experiments"
	"deact/internal/stats"
	"deact/internal/workload"
)

// benchOptions keeps figure benchmarks affordable on one machine while
// still running every benchmark and scheme the figure needs. Simulations
// run concurrently on the Runner worker pool (Parallelism 0 =
// GOMAXPROCS). Under -short (the CI smoke tier) the instruction budgets
// and benchmark list shrink so `-bench=. -benchtime=1x -short` finishes in
// seconds instead of paper-scale minutes.
func benchOptions() experiments.Options {
	o := experiments.Options{Warmup: 30_000, Measure: 25_000, Cores: 1, Seed: 42}
	if testing.Short() {
		o.Warmup, o.Measure = 4_000, 4_000
		o.Benchmarks = []string{"mcf", "canl", "sp", "dc"}
	}
	return o
}

// sweepOptions trims the benchmark list for the many-point sweeps the same
// way one would trim SST runs: both sensitivity classes stay represented.
func sweepOptions() experiments.Options {
	o := benchOptions()
	o.Benchmarks = []string{"mcf", "canl", "sssp", "bc", "pf", "dc"}
	if testing.Short() {
		o.Benchmarks = []string{"canl", "dc"}
	}
	return o
}

func reportSeries(b *testing.B, t stats.Table) {
	b.Helper()
	if len(t.Series) == 0 || len(t.Series[0].Values) == 0 {
		b.Fatal("empty series")
	}
	last := t.Series[len(t.Series)-1]
	b.ReportMetric(last.Values[len(last.Values)-1], "last_value")
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableI() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableII() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkExperiments regenerates every registry entry, one sub-benchmark
// each; sweeps run on the trimmed sweepOptions benchmark list.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			o := benchOptions()
			if e.Sweep != "" {
				o = sweepOptions()
			}
			// The node-count sweep simulates up to 8 nodes per point.
			if e.Sweep == "nodes" && !testing.Short() {
				o.Warmup, o.Measure = 15_000, 15_000
			}
			for i := 0; i < b.N; i++ {
				t, err := e.Run(context.Background(), experiments.New(o))
				if err != nil {
					b.Fatal(err)
				}
				reportSeries(b, t)
			}
		})
	}
}

// ——— micro-benchmarks of the hot simulator paths ———

// BenchmarkCacheHierarchyAccess streams through the full three-level
// hierarchy; the per-level hit/miss/eviction mixes live in
// internal/cache's BenchmarkCacheAccess.
func BenchmarkCacheHierarchyAccess(b *testing.B) {
	h, err := cache.NewHierarchy(cache.HierarchyConfig{
		Cores: 1, L1Size: 8 << 10, L1Ways: 8, L2Size: 64 << 10, L2Ways: 8,
		L3Size: 256 << 10, L3Ways: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, uint64(i*64)%(1<<22), i%4 == 0)
	}
}

func BenchmarkBrokerAllocate(b *testing.B) {
	l := addr.Layout{DRAMSize: 64 << 20, FAMZoneSize: 448 << 20, FAMSize: 1 << 30, ACMBits: 16}
	brk, err := broker.New(l, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := brk.AllocatePage(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := brk.FreePage(1, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkACMCheck(b *testing.B) {
	l := addr.Layout{DRAMSize: 64 << 20, FAMZoneSize: 448 << 20, FAMSize: 1 << 30, ACMBits: 16}
	s := acm.NewStore(l)
	for p := addr.FPage(0); p < 4096; p++ {
		s.Set(p, acm.Entry{Owner: uint16(p) % 63, Perm: acm.PermRWX})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Check(addr.FPage(i)%4096, uint16(i)%63, acm.PermR)
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	g, err := workload.NewGenerator(workload.Catalog()["sssp"], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
