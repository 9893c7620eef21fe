package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
	"deact/internal/workload"
)

// prefetchDegrees is the sweep axis: 0 disables the prefetcher entirely
// (the baseline column), the rest are blocks fetched per confirmed-stream
// trigger.
func prefetchDegrees() []int { return []int{0, 1, 2, 4, 8} }

// prefetchStreams/prefetchThreshold fix the non-swept prefetcher shape:
// a 64-entry PC table (plenty for the generators' handful of PCs) and the
// classic 2-confirmation stream filter.
const (
	prefetchStreams   = 64
	prefetchThreshold = 2
)

// prefetchScenarios spans the prefetch-friendliness spectrum: the
// streaming-heavy skew benchmark (sp), a chase-heavy skew benchmark
// (canl), and the three v2 generators on an mcf-sized footprint —
// stencil (pure strided streams, the best case), pointer-chase (payload
// bursts only) and graph-frontier (vertex scan only).
func (o Options) prefetchScenarios() []patternScenario {
	return []patternScenario{
		{label: o.steadyBenchmark() + "/skew", bench: o.steadyBenchmark()},
		{label: o.noisyBenchmark() + "/skew", bench: o.noisyBenchmark()},
		{label: "mcf/stencil", bench: "mcf", pattern: workload.PatternStencil, degree: 4},
		{label: "mcf/chase", bench: "mcf", pattern: workload.PatternPointerChase, degree: 4},
		{label: "mcf/frontier", bench: "mcf", pattern: workload.PatternGraphFrontier, degree: 8},
	}
}

// prefetchConfig builds one grid point: deg 0 leaves the prefetcher off
// (bit-identical to a build without it), deg > 0 enables the PC-keyed
// table at the fixed shape.
func (r *Runner) prefetchConfig(s core.Scheme, sc patternScenario, deg int) core.Config {
	return r.config(s, sc.bench, func(c *core.Config) {
		c.Pattern = sc.pattern
		c.PatternDegree = sc.degree
		if deg > 0 {
			c.PrefetchStreams = prefetchStreams
			c.PrefetchDegree = deg
			c.PrefetchThreshold = prefetchThreshold
		}
	})
}

// PrefetchSweep is the prefetch-interaction experiment (beyond the paper,
// ROADMAP item 3): sweep the stream prefetcher's degree across workload
// shapes under I-FAM and DeACT-N, reporting IPC relative to
// prefetcher-off. It answers the question the paper's fixed pipeline
// could not pose: does prefetching hide FAM translation latency (each
// prefetch amortizes one translation across several blocks) or amplify
// the AT traffic it rides on?
func (r *Runner) PrefetchSweep(ctx context.Context) (stats.Table, error) {
	degs := prefetchDegrees()
	t := stats.Table{
		Title: fmt.Sprintf("Prefetch interaction: IPC relative to prefetch-off (streams=%d, threshold=%d)",
			prefetchStreams, prefetchThreshold),
		Format: "%.3f",
	}
	for _, d := range degs {
		if d == 0 {
			t.XLabels = append(t.XLabels, "off")
		} else {
			t.XLabels = append(t.XLabels, fmt.Sprintf("deg=%d", d))
		}
	}
	return r.relativeIPCSweep(ctx, t, r.opts.prefetchScenarios(), degs, r.prefetchConfig)
}

// checkPrefetchDetectsStreams pins the mechanism rather than a fragile
// perf delta: on the stencil workload (pure strided streams) the PC-keyed
// table must confirm streams and issue prefetches, and with the
// prefetcher off the counters must stay exactly zero — the off
// configuration is the golden-compatible no-op. The table prints only IPC,
// so the counters come from two of the sweep's runs, which dedup answers
// from its cache.
func checkPrefetchDetectsStreams(ctx context.Context, r *Runner, _ stats.Table) (bool, string, error) {
	sc := patternScenario{bench: "mcf", pattern: workload.PatternStencil, degree: 4}
	on := r.prefetchConfig(core.DeACTN, sc, 4)
	off := r.prefetchConfig(core.DeACTN, sc, 0)
	res, err := r.RunAll(ctx, []core.Config{on, off})
	if err != nil {
		return false, "", err
	}
	var issuedOn, issuedOff uint64
	for _, ns := range res[0].NodeStats {
		issuedOn += ns.Prefetch.Issued
	}
	for _, ns := range res[1].NodeStats {
		issuedOff += ns.Prefetch.Issued
	}
	detail := fmt.Sprintf("stencil prefetches issued: %d on, %d off", issuedOn, issuedOff)
	return issuedOn > 0 && issuedOff == 0, detail, nil
}
