package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/sim"
	"deact/internal/stats"
)

// Figure3 regenerates the motivation slowdown chart: I-FAM slowdown with
// respect to E-FAM per benchmark (paper: up to 20.6× for sssp).
func (r *Runner) Figure3(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 3: Slowdown of I-FAM wrt E-FAM (×)",
		XLabels: r.opts.benchmarks(),
	}
	pairs, err := r.pairedDefaults(ctx, core.EFAM, core.IFAM, r.opts.benchmarks())
	if err != nil {
		return t, err
	}
	var slow []float64
	for _, p := range pairs {
		slow = append(slow, p[0].Speedup(p[1]))
	}
	err = t.AddSeries("I-FAM slowdown", slow)
	return t, err
}

// Figure4 regenerates the AT vs non-AT request breakdown at FAM for E-FAM
// and I-FAM (paper: canl 44.36% → 84.13%, cactus 1.81% → 53.69%).
func (r *Runner) Figure4(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 4: Address-translation share of FAM requests (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.EFAM, core.IFAM}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ATFraction * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String()+" AT", rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure9 regenerates the access-control-metadata hit-rate comparison
// (paper: DeACT-N lifts canl/sssp/cactus from <60% toward 76–99%).
func (r *Runner) Figure9(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 9: Access control metadata hit rate (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTW, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ACMHitRate * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String(), rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure10 regenerates the FAM address-translation hit-rate comparison
// (paper: canl 46.44% in I-FAM vs 95.88% in DeACT).
func (r *Runner) Figure10(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 10: FAM address translation hit rate (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.TranslationHitRate * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		name := scheme.String()
		if scheme == core.DeACTN {
			name = "DeACT"
		}
		if err := t.AddSeries(name, rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure11 regenerates the percentage of AT requests at FAM for I-FAM,
// DeACT-W and DeACT-N (paper: 23.97% → 11.82% → 1.77% on average).
func (r *Runner) Figure11(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 11: Address-translation share of FAM requests (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTW, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ATFraction * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String(), rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure12 regenerates the headline performance chart: per-benchmark
// performance normalized to E-FAM for all four schemes. The whole
// scheme×benchmark grid is one batch; the E-FAM baseline deduplicates
// against its row in the grid.
func (r *Runner) Figure12(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 12: Performance normalized to E-FAM",
		XLabels: r.opts.benchmarks(),
	}
	benches := r.opts.benchmarks()
	schemes := core.Schemes()
	cfgs := make([]core.Config, 0, len(benches)*len(schemes))
	baseRow := 0
	for i, scheme := range schemes {
		if scheme == core.EFAM {
			baseRow = i
		}
		for _, b := range benches {
			cfgs = append(cfgs, r.config(scheme, b, nil))
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	base := res[baseRow*len(benches) : (baseRow+1)*len(benches)]
	for i, scheme := range schemes {
		var vals []float64
		for j := range benches {
			vals = append(vals, res[i*len(benches)+j].Speedup(base[j]))
		}
		if err := t.AddSeries(scheme.String(), vals); err != nil {
			return t, err
		}
	}
	return t, nil
}

// sensitivitySweep builds a Figure 13/15-style table: one series per
// sensitivity group, one column per sweep point, values = geomean DeACT-N
// speedup over I-FAM at that point. Every (group, point, member) run —
// DeACT-N and its I-FAM baseline — is submitted as one declarative batch,
// so the entire sweep overlaps across groups and sweep points.
func (r *Runner) sensitivitySweep(ctx context.Context, title string, labels []string, mutates []func(*core.Config)) (stats.Table, error) {
	t := stats.Table{Title: title, XLabels: labels}
	groups := r.sensitivityGroups()
	var cfgs []core.Config
	for _, g := range groups {
		for i := range labels {
			for _, b := range g.members {
				cfgs = append(cfgs,
					r.config(core.DeACTN, b, mutates[i]),
					r.config(core.IFAM, b, mutates[i]))
			}
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	idx := 0
	for _, g := range groups {
		if len(g.members) == 0 {
			continue
		}
		var vals []float64
		for range labels {
			var ratios []float64
			for range g.members {
				ratios = append(ratios, res[idx].Speedup(res[idx+1]))
				idx += 2
			}
			vals = append(vals, stats.Geomean(ratios))
		}
		if err := t.AddSeries(g.name, vals); err != nil {
			return t, err
		}
	}
	return t, nil
}

// patternScenario is one workload row of a relative-IPC sweep: a catalog
// benchmark, optionally re-shaped by a v2 pattern generator (degree is the
// pattern's degree, not the swept axis).
type patternScenario struct {
	label   string
	bench   string
	pattern string
	degree  int
}

// relativeIPCSweep is the body of the prefetch and MLP sweeps: one series
// per (scheme, scenario) for I-FAM and DeACT-N, one column per axis point,
// values = IPC relative to the row's first column. The whole grid is
// submitted as one batch; t arrives with its title, format and labels.
func (r *Runner) relativeIPCSweep(ctx context.Context, t stats.Table, scenarios []patternScenario, axis []int,
	config func(core.Scheme, patternScenario, int) core.Config) (stats.Table, error) {
	schemes := []core.Scheme{core.IFAM, core.DeACTN}
	var cfgs []core.Config
	for _, s := range schemes {
		for _, sc := range scenarios {
			for _, p := range axis {
				cfgs = append(cfgs, config(s, sc, p))
			}
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for _, s := range schemes {
		for _, sc := range scenarios {
			row := res[:len(axis)]
			res = res[len(axis):]
			vals := make([]float64, len(row))
			for i, x := range row {
				vals[i] = x.IPC / row[0].IPC
			}
			if err := t.AddSeries(fmt.Sprintf("%v %s", s, sc.label), vals); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// Figure13 sweeps the STU cache size (256–4096 entries; paper: the DeACT
// advantage shrinks as the STU grows).
func (r *Runner) Figure13(ctx context.Context) (stats.Table, error) {
	sizes := []int{256, 512, 1024, 2048, 4096}
	var labels []string
	var mutates []func(*core.Config)
	for _, s := range sizes {
		s := s
		labels = append(labels, fmt.Sprintf("%d", s))
		mutates = append(mutates, func(c *core.Config) { c.STUEntries = s })
	}
	return r.sensitivitySweep(ctx, "Figure 13: DeACT-N speedup wrt I-FAM vs STU cache entries", labels, mutates)
}

// AssociativitySweep reproduces the §V-D1 text experiment: STU cache
// associativity 4 → 64 (paper: improvement decreases and saturates).
func (r *Runner) AssociativitySweep(ctx context.Context) (stats.Table, error) {
	assocs := []int{4, 8, 32, 64}
	var labels []string
	var mutates []func(*core.Config)
	for _, a := range assocs {
		a := a
		labels = append(labels, fmt.Sprintf("%d-way", a))
		mutates = append(mutates, func(c *core.Config) { c.STUWays = a })
	}
	return r.sensitivitySweep(ctx, "§V-D1: DeACT-N speedup wrt I-FAM vs STU associativity", labels, mutates)
}

// Figure14 sweeps the ACM width (8/16/32 bits) for DeACT-W and DeACT-N,
// normalized to I-FAM at the same width. All groups, schemes and widths go
// out as one batch.
func (r *Runner) Figure14(ctx context.Context) (stats.Table, error) {
	widths := []uint{8, 16, 32}
	var labels []string
	var mutates []func(*core.Config)
	for _, w := range widths {
		w := w
		labels = append(labels, fmt.Sprintf("%db", w))
		mutates = append(mutates, func(c *core.Config) { c.Layout.ACMBits = w })
	}
	t := stats.Table{Title: "Figure 14: speedup wrt I-FAM vs ACM size", XLabels: labels}
	groups := r.sensitivityGroups()
	schemes := []core.Scheme{core.DeACTW, core.DeACTN}
	var cfgs []core.Config
	for _, g := range groups {
		for _, scheme := range schemes {
			for i := range widths {
				for _, b := range g.members {
					cfgs = append(cfgs,
						r.config(scheme, b, mutates[i]),
						r.config(core.IFAM, b, mutates[i]))
				}
			}
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	idx := 0
	for _, g := range groups {
		if len(g.members) == 0 {
			continue
		}
		for _, scheme := range schemes {
			var vals []float64
			for range widths {
				var ratios []float64
				for range g.members {
					ratios = append(ratios, res[idx].Speedup(res[idx+1]))
					idx += 2
				}
				vals = append(vals, stats.Geomean(ratios))
			}
			if err := t.AddSeries(fmt.Sprintf("%s %s", g.name, scheme), vals); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// PairsPerWaySweep reproduces the §V-D2 experiment on how many (tag, ACM)
// pairs a DeACT-N way holds (paper: 1 pair ≈ DeACT-W; more pairs → faster).
func (r *Runner) PairsPerWaySweep(ctx context.Context) (stats.Table, error) {
	pairs := []int{1, 2, 3}
	var labels []string
	var mutates []func(*core.Config)
	for _, p := range pairs {
		p := p
		labels = append(labels, fmt.Sprintf("%d pair", p))
		mutates = append(mutates, func(c *core.Config) {
			c.PairsPerWay = p
			c.Layout.ACMBits = 8 // the paper varies pairs at 8-bit ACM
		})
	}
	return r.sensitivitySweep(ctx, "§V-D2: DeACT-N speedup wrt I-FAM vs ACM pairs per way (8-bit ACM)", labels, mutates)
}

// Figure15 sweeps the fabric latency 100ns–6µs (paper: longer fabric →
// bigger DeACT advantage; 1.79× even at 100ns).
func (r *Runner) Figure15(ctx context.Context) (stats.Table, error) {
	lats := []sim.Time{sim.NS(100), sim.NS(250), sim.NS(500), sim.NS(750), sim.US(1), sim.US(3), sim.US(6)}
	var labels []string
	var mutates []func(*core.Config)
	for _, l := range lats {
		l := l
		labels = append(labels, nsLabel(l))
		mutates = append(mutates, func(c *core.Config) { c.FabricLatency = l })
	}
	return r.sensitivitySweep(ctx, "Figure 15: DeACT-N speedup wrt I-FAM vs fabric latency", labels, mutates)
}

// Figure16 sweeps the node count 1–8 for pf and dc (paper: more nodes
// sharing the fabric → bigger DeACT advantage; dc 2.92× → 3.26×).
func (r *Runner) Figure16(ctx context.Context) (stats.Table, error) {
	counts := []int{1, 2, 4, 8}
	var labels []string
	var mutates []func(*core.Config)
	for _, n := range counts {
		n := n
		labels = append(labels, fmt.Sprintf("%d", n))
		mutates = append(mutates, func(c *core.Config) { c.Nodes = n })
	}
	t := stats.Table{Title: "Figure 16: DeACT-N speedup wrt I-FAM vs number of nodes", XLabels: labels}
	var benches []string
	for _, bench := range []string{"pf", "dc"} {
		for _, b := range r.opts.benchmarks() {
			if b == bench {
				benches = append(benches, bench)
				break
			}
		}
	}
	var cfgs []core.Config
	for _, bench := range benches {
		for i := range counts {
			cfgs = append(cfgs,
				r.config(core.DeACTN, bench, mutates[i]),
				r.config(core.IFAM, bench, mutates[i]))
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	idx := 0
	for _, bench := range benches {
		var vals []float64
		for range counts {
			vals = append(vals, res[idx].Speedup(res[idx+1]))
			idx += 2
		}
		if err := t.AddSeries(bench, vals); err != nil {
			return t, err
		}
	}
	return t, nil
}
