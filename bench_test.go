// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks of the hot simulator paths.
//
//	go test -bench=. -benchmem
//
// Each figure benchmark regenerates the corresponding rows/series through
// internal/experiments and reports a headline figure metric via
// b.ReportMetric, so `go test -bench=Figure12` is the programmatic
// equivalent of re-plotting the paper's Figure 12.
package deact_test

import (
	"context"
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/broker"
	"deact/internal/cache"
	"deact/internal/core"
	"deact/internal/experiments"
	"deact/internal/memdev"
	"deact/internal/sim"
	"deact/internal/stats"
	"deact/internal/tlb"
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

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.TableIII(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		t, err := h.Figure12(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(sweepOptions())
		t, err := h.Figure13(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkAssociativitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(sweepOptions())
		t, err := h.AssociativitySweep(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(sweepOptions())
		t, err := h.Figure14(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkPairsPerWaySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(sweepOptions())
		t, err := h.PairsPerWaySweep(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(sweepOptions())
		t, err := h.Figure15(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := sweepOptions()
		if !testing.Short() {
			o.Warmup, o.Measure = 15_000, 15_000
		}
		h := experiments.New(o)
		t, err := h.Figure16(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, t)
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

func BenchmarkTLBLookup(b *testing.B) {
	m, err := tlb.NewMMU("bench", tlb.MMUConfig{L1Entries: 32, L1Ways: 4, L2Entries: 256, L2Ways: 8, PTWEntries: 32})
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 512; i++ {
		m.Insert(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(uint64(i) % 512)
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

func BenchmarkMemDevAccess(b *testing.B) {
	d := memdev.New(memdev.Config{Name: "bench", Banks: 32,
		ReadLatency: sim.NS(60), WriteLatency: sim.NS(150), PortLatency: sim.NS(2)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(sim.Time(i)*100, uint64(i)*64, i%4 == 0)
	}
}

// BenchmarkEndToEnd measures whole-system simulation throughput
// (instructions simulated per wall second) for each scheme.
func BenchmarkEndToEnd(b *testing.B) {
	measure := uint64(50_000)
	if testing.Short() {
		measure = 10_000
	}
	for _, scheme := range core.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Scheme = scheme
				cfg.Benchmark = "mcf"
				cfg.CoresPerNode = 1
				cfg.WarmupInstructions = 0
				cfg.MeasureInstructions = measure
				r, err := core.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.IPC, "sim_ipc")
			}
		})
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
