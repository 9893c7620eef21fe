package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
)

// ReadTrustAblation quantifies the §III-A optional optimization for
// encrypted FAM: with per-node encryption keys, reads can skip access
// control entirely (a foreign reader only obtains ciphertext). The
// ablation runs DeACT-N with and without the optimization and reports the
// speedup it buys per benchmark — an upper bound on what ACM caching is
// worth for read traffic.
func (r *Runner) ReadTrustAblation(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "§III-A ablation: DeACT-N with trusted reads (encrypted FAM) vs baseline",
		XLabels: r.opts.benchmarks(),
	}
	benches := r.opts.benchmarks()
	var cfgs []core.Config
	for _, b := range benches {
		cfgs = append(cfgs,
			r.config(core.DeACTN, b, nil),
			r.config(core.DeACTN, b, func(c *core.Config) { c.TrustReads = true }))
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	speedups := make([]float64, len(benches))
	for i := range speedups {
		speedups[i] = res[2*i+1].Speedup(res[2*i])
	}
	err = t.AddSeries("trusted-read speedup", speedups)
	return t, err
}

// checkReadTrustNeverHurts: skipping read verification can only remove
// work, so the speedup must be ≥ ~1 everywhere.
func checkReadTrustNeverHurts(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	speedups := t.Series[0].Values
	min := stats.Min(speedups)
	return min > 0.97, fmt.Sprintf("min speedup %.3f, geomean %.3f", min, stats.Geomean(speedups)), nil
}
