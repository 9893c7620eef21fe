package experiments

import (
	"context"

	"deact/internal/stats"
)

// expectation records the paper's qualitative claim for one experiment so
// the report can state pass/fail on shape, not absolute numbers.
type expectation struct {
	id    string
	claim string
	check func(ctx context.Context, r *Runner) (bool, string, error)
}

// Experiment is one registry entry: everything Report, deact-report,
// deact-sweep and the figure benchmarks need to know about an experiment.
// Adding an experiment means adding one entry to Registry.
type Experiment struct {
	// ID and PaperRef title the experiment's report section
	// ("## ID — PaperRef").
	ID       string
	PaperRef string
	// Sweep is the experiment's `deact-sweep -sweep` name; empty for
	// experiments that are not sweeps.
	Sweep string
	// Additive marks an opt-in section beyond the paper. Report emits it
	// only on request, after the base report's closing runs line, so
	// requesting it never changes a byte above it. deact-report exposes
	// it as a bool flag named Sweep.
	Additive bool
	// Prose (additive only) introduces the section's table.
	Prose string
	// RunsLabel (additive only) prefixes the section's closing
	// "N additional simulations" line.
	RunsLabel string

	gen    func(r *Runner, ctx context.Context) (stats.Table, error)
	expect []expectation
}

// Run generates the experiment's table on r.
func (e Experiment) Run(ctx context.Context, r *Runner) (stats.Table, error) {
	return e.gen(r, ctx)
}

// Registry returns every experiment in report order: the paper's
// evaluation first, then the additive beyond-paper sections.
func Registry() []Experiment {
	return []Experiment{
		{ID: "Table III", PaperRef: "workload calibration",
			gen: (*Runner).TableIII},
		{ID: "Figure 3", PaperRef: "I-FAM slowdown wrt E-FAM",
			gen: (*Runner).Figure3,
			expect: []expectation{{"fig3-sensitive-worst",
				"AT-sensitive benchmarks (canl, sssp, ccsv, cactus) slow down more than the insensitive set (bc, lu, mg, sp)",
				checkFig3Ordering}}},
		{ID: "Figure 4", PaperRef: "AT share of FAM requests, E-FAM vs I-FAM",
			gen: (*Runner).Figure4,
			expect: []expectation{{"fig4-indirection-blowup",
				"I-FAM's AT share exceeds E-FAM's for every benchmark",
				checkFig4Blowup}}},
		{ID: "Figure 9", PaperRef: "ACM hit rate",
			gen: (*Runner).Figure9,
			expect: []expectation{{"fig9-n-beats-w",
				"DeACT-N's ACM hit rate beats DeACT-W's on AT-sensitive benchmarks; DeACT-W ≈ I-FAM",
				checkFig9NBeatsW}}},
		{ID: "Figure 10", PaperRef: "translation hit rate",
			gen: (*Runner).Figure10,
			expect: []expectation{{"fig10-deact-high",
				"DeACT's in-DRAM translation cache hit rate exceeds I-FAM's STU hit rate on every benchmark (paper: >90%)",
				checkFig10DeACTHigh}}},
		{ID: "Figure 11", PaperRef: "AT share of FAM requests, three organizations",
			gen: (*Runner).Figure11,
			expect: []expectation{{"fig11-monotone",
				"mean AT share decreases I-FAM → DeACT-W → DeACT-N",
				checkFig11Monotone}}},
		{ID: "Figure 12", PaperRef: "normalized performance",
			gen: (*Runner).Figure12,
			expect: []expectation{{"fig12-ordering",
				"E-FAM ≥ DeACT-N ≥ DeACT-W ≥ I-FAM on AT-sensitive benchmarks; DeACT ≈ I-FAM on the insensitive set",
				checkFig12Ordering}}},
		{ID: "Figure 13", PaperRef: "STU size sweep", Sweep: "stu",
			gen: (*Runner).Figure13,
			expect: []expectation{{"fig13-shrinking-gain",
				"DeACT's speedup over I-FAM shrinks as the STU cache grows",
				checkFig13Shrinks}}},
		{ID: "§V-D1 associativity", PaperRef: "STU associativity sweep", Sweep: "assoc",
			gen: (*Runner).AssociativitySweep},
		{ID: "Figure 14", PaperRef: "ACM width sweep", Sweep: "acm",
			gen: (*Runner).Figure14},
		{ID: "§V-D2 pairs/way", PaperRef: "DeACT-N packing sweep", Sweep: "pairs",
			gen: (*Runner).PairsPerWaySweep,
			expect: []expectation{{"fig14-pairs-monotone",
				"more (tag, ACM) pairs per way → more speedup; one pair ≈ DeACT-W",
				checkPairsMonotone}}},
		{ID: "Figure 15", PaperRef: "fabric latency sweep", Sweep: "fabric",
			gen: (*Runner).Figure15,
			expect: []expectation{{"fig15-growing-gain",
				"longer fabric latency → bigger DeACT speedup over I-FAM",
				checkFig15Grows}}},
		{ID: "Figure 16", PaperRef: "node count sweep", Sweep: "nodes",
			gen: (*Runner).Figure16,
			expect: []expectation{{"fig16-growing-gain",
				"more nodes sharing the fabric → bigger DeACT speedup over I-FAM",
				checkFig16Grows}}},
		{ID: "§III-A read trust", PaperRef: "encrypted-FAM ablation",
			gen: (*Runner).ReadTrustAblation,
			expect: []expectation{{"read-trust-never-hurts",
				"skipping read verification never slows a benchmark down",
				checkReadTrustNeverHurts}}},
		{ID: "Capacity planning", PaperRef: "multi-tenant tail latency (beyond the paper)",
			Sweep: "capacity", Additive: true,
			Prose: "Tenant 0 on every node runs the noisy workload; the remaining tenants\n" +
				"run the steady one. Columns are nodes/tenants; values are p99 in µs.\n",
			RunsLabel: "Capacity-planning runs",
			gen:       (*Runner).CapacitySweep,
			expect: []expectation{{"capacity-deact-shields-steady",
				"the noisy neighbor never inflates the steady tenants' p99 translation latency materially (>10%) beyond I-FAM's at any deployment size",
				checkCapacityDeACTShieldsSteady}}},
		{ID: "Prefetch interaction", PaperRef: "PC-keyed stream prefetcher (beyond the paper)",
			Sweep: "prefetch", Additive: true,
			Prose: "Rows are scheme × workload shape (skew benchmarks and the v2 pattern\n" +
				"generators); columns sweep the prefetch degree in 64B blocks; values are\n" +
				"IPC relative to the prefetcher-off baseline of the same row.\n",
			RunsLabel: "Prefetch-interaction runs",
			gen:       (*Runner).PrefetchSweep,
			expect: []expectation{{"prefetch-detects-streams",
				"the PC-keyed table confirms streams and issues prefetches on the stencil workload, and issues none with the prefetcher off",
				checkPrefetchDetectsStreams}}},
		{ID: "Memory-level parallelism", PaperRef: "OoO scheduling window (beyond the paper)",
			Sweep: "mlp", Additive: true,
			Prose: "Rows are scheme × workload dependence shape (v2 pattern generators);\n" +
				"columns sweep the OoO scheduling window in ops (with MaxOutstanding\n" +
				"coupled to it); values are IPC relative to the window=1 baseline of the\n" +
				"same row, which is bit-identical to the in-order core.\n",
			RunsLabel: "MLP runs",
			gen:       (*Runner).MLPSweep,
			expect: []expectation{{"mlp-separates-dependence",
				"widening the window speeds up the independent stencil streams substantially while the degree-1 pointer chase stays pinned to its serialized chain",
				checkMLPSeparatesDependence}}},
	}
}

// Lookup returns the experiment whose sweep name is sweep.
func Lookup(sweep string) (Experiment, bool) {
	for _, e := range Registry() {
		if sweep != "" && e.Sweep == sweep {
			return e, true
		}
	}
	return Experiment{}, false
}

// SweepNames lists every experiment's sweep name in registry order.
func SweepNames() []string {
	var names []string
	for _, e := range Registry() {
		if e.Sweep != "" {
			names = append(names, e.Sweep)
		}
	}
	return names
}
