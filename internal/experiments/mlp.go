package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
	"deact/internal/workload"
)

// mlpWindows is the sweep axis: OoO scheduling-window sizes in ops. The
// one-entry window is the in-order-equivalent baseline column (the
// degeneracy oracle pins that equivalence bit-for-bit).
func mlpWindows() []int { return []int{1, 2, 4, 8, 16, 32} }

// mlpSchedulerLatency fixes the non-swept scheduler shape: a 2-cycle
// wakeup/select stage between a chain load completing and its dependent
// issuing.
const mlpSchedulerLatency = 2

// mlpScenarios spans the dependence spectrum the window can and cannot
// exploit: a degree-1 pointer chase is a pure dependence chain (every load
// feeds the next — run-ahead has nothing to overlap, IPC must stay flat), a
// stencil is pure independent streams (overlap scales with the window), and
// a graph frontier mixes a blocking vertex scan with independent edge
// bursts (partial scaling).
func mlpScenarios() []patternScenario {
	return []patternScenario{
		{label: "mcf/chase", bench: "mcf", pattern: workload.PatternPointerChase, degree: 1},
		{label: "mcf/frontier", bench: "mcf", pattern: workload.PatternGraphFrontier, degree: 8},
		{label: "mcf/stencil", bench: "mcf", pattern: workload.PatternStencil, degree: 4},
	}
}

// mlpConfig builds one grid point. The miss window is coupled to the
// scheduling window (a W-entry machine has ~W MSHRs), so the sweep varies
// one machine-size axis: both the run-ahead depth past dependent loads and
// the independent-miss overlap grow with W.
func (r *Runner) mlpConfig(s core.Scheme, sc patternScenario, window int) core.Config {
	return r.config(s, sc.bench, func(c *core.Config) {
		c.Pattern = sc.pattern
		c.PatternDegree = sc.degree
		c.CoreModel = core.CoreOoO
		c.WindowSize = window
		c.MaxOutstanding = window
		c.SchedulerLatency = mlpSchedulerLatency
	})
}

// MLPSweep is the memory-level-parallelism experiment (beyond the paper,
// ROADMAP item 2): sweep the OoO scheduling-window size across workload
// dependence shapes under I-FAM and DeACT-N, reporting IPC relative to the
// one-entry (in-order-equivalent) window. It separates what the paper's
// fixed core could not: how much of FAM's translation latency an OoO core
// hides depends on the workload's dependence structure, not just its miss
// rate — streams scale with the window while pointer chases stay pinned to
// the serialized chain.
func (r *Runner) MLPSweep(ctx context.Context) (stats.Table, error) {
	windows := mlpWindows()
	t := stats.Table{
		Title: fmt.Sprintf("MLP: IPC relative to window=1 (OoO core, scheduler latency %d cycles, MaxOutstanding=window)",
			mlpSchedulerLatency),
		Format: "%.3f",
	}
	for _, w := range windows {
		t.XLabels = append(t.XLabels, fmt.Sprintf("W=%d", w))
	}
	return r.relativeIPCSweep(ctx, t, mlpScenarios(), windows, r.mlpConfig)
}

// checkMLPSeparatesDependence pins the mechanism rather than a fragile perf
// delta: widening the window from 1 to 32 must speed the stencil streams up
// substantially while the degree-1 pointer chase — a pure dependence chain
// — stays within a few percent of flat. Dedup answers all four runs from
// the sweep's cache.
func checkMLPSeparatesDependence(ctx context.Context, r *Runner) (bool, string, error) {
	scs := mlpScenarios()
	chase, stencil := scs[0], scs[2]
	cfgs := []core.Config{
		r.mlpConfig(core.DeACTN, chase, 1), r.mlpConfig(core.DeACTN, chase, 32),
		r.mlpConfig(core.DeACTN, stencil, 1), r.mlpConfig(core.DeACTN, stencil, 32),
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return false, "", err
	}
	chaseGain := res[1].IPC / res[0].IPC
	stencilGain := res[3].IPC / res[2].IPC
	detail := fmt.Sprintf("W=1 to W=32 IPC gain: chase %.3fx, stencil %.3fx", chaseGain, stencilGain)
	return chaseGain < 1.05 && stencilGain > 1.5, detail, nil
}
