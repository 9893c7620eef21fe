package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/sim"
	"deact/internal/stats"
)

// capacityPoint is one cell of the capacity-planning grid: how many nodes
// share the fabric and how many tenants share those nodes.
type capacityPoint struct{ nodes, tenants int }

// capacityPoints fixes the sweep grid, like the figure sweeps fix theirs:
// scale nodes at a constant tenant count, then densify tenants at a
// constant node count.
func capacityPoints() []capacityPoint {
	return []capacityPoint{{2, 2}, {4, 2}, {4, 4}, {8, 4}}
}

// steadyBenchmark returns the workload the steady tenants run.
func (o Options) steadyBenchmark() string {
	if o.SteadyBenchmark != "" {
		return o.SteadyBenchmark
	}
	return "sp"
}

// noisyBenchmark returns the workload the noisy tenant (tenant 0) runs.
func (o Options) noisyBenchmark() string {
	if o.NoisyBenchmark != "" {
		return o.NoisyBenchmark
	}
	return "canl"
}

// CapacitySweep is the capacity-planning experiment (beyond the paper, built
// on its §V-C multi-node setup): tenant 0 on every node runs a noisy
// AT-sensitive workload while the remaining tenants run a steady one, and the
// table reports per-tenant p99 latencies (µs) as the deployment grows. The
// planning question it answers: how much steady-tenant tail latency does one
// noisy neighbor cost under each translation scheme, and does adding
// nodes/tenants amortize or amplify it?
func (r *Runner) CapacitySweep(ctx context.Context) (stats.Table, error) {
	points := capacityPoints()
	steady, noisy := r.opts.steadyBenchmark(), r.opts.noisyBenchmark()
	t := stats.Table{
		Title: fmt.Sprintf("Capacity planning: p99 latency (us) per tenant class, steady=%s vs noisy=%s",
			steady, noisy),
		Format: "%.3f",
	}
	for _, p := range points {
		t.XLabels = append(t.XLabels, fmt.Sprintf("%dn/%dt", p.nodes, p.tenants))
	}

	schemes := []core.Scheme{core.IFAM, core.DeACTN}
	var cfgs []core.Config
	for _, s := range schemes {
		for _, p := range points {
			cfgs = append(cfgs, r.config(s, steady, func(c *core.Config) {
				c.Nodes = p.nodes
				c.Tenants = p.tenants
				c.NoisyBenchmark = noisy
			}))
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}

	const us = float64(sim.Microsecond) // histogram samples are picoseconds
	idx := 0
	for _, s := range schemes {
		xlate := make([]float64, 0, len(points))
		famSteady := make([]float64, 0, len(points))
		famNoisy := make([]float64, 0, len(points))
		for _, p := range points {
			st := res[idx].SteadyLatency(p.tenants)
			nz := res[idx].TenantLatency(0)
			xlate = append(xlate, st.Translation.P99()/us)
			famSteady = append(famSteady, st.FAM.P99()/us)
			famNoisy = append(famNoisy, nz.FAM.P99()/us)
			idx++
		}
		for _, sr := range []struct {
			name string
			vals []float64
		}{
			{fmt.Sprintf("%v steady xlate p99", s), xlate},
			{fmt.Sprintf("%v steady FAM p99", s), famSteady},
			{fmt.Sprintf("%v noisy FAM p99", s), famNoisy},
		} {
			if err := t.AddSeries(sr.name, sr.vals); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// checkCapacityDeACTShieldsSteady states the planning claim the sweep is
// expected to show: decoupling translation never lets the noisy neighbor
// inflate the steady tenants' p99 translation latency materially beyond
// I-FAM's — DeACT-N's translations stay in node-local DRAM instead of
// queueing on the shared fabric behind the noisy tenant's walks. Like
// checkReadTrustNeverHurts, the bound carries a tolerance (10%) so
// small-scale tail noise does not flip the verdict.
func checkCapacityDeACTShieldsSteady(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	// Series layout per scheme: [steady xlate, steady FAM, noisy FAM].
	ifam, deact := t.Series[0].Values, t.Series[3].Values
	worst := 0.0
	for i := range ifam {
		if ratio := deact[i] / ifam[i]; ratio > worst {
			worst = ratio
		}
	}
	return worst < 1.10, fmt.Sprintf("worst DeACT-N/I-FAM steady xlate p99 ratio %.3f", worst), nil
}
