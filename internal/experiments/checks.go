package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
	"deact/internal/workload"
)

// partition splits the column indices of benchmark labels into the
// paper's AT-sensitive and insensitive sets (§V-C).
func partition(labels []string) (sensitive, insensitive []int) {
	cat := workload.Catalog()
	for i, b := range labels {
		if cat[b].ATSensitive {
			sensitive = append(sensitive, i)
		} else {
			insensitive = append(insensitive, i)
		}
	}
	return sensitive, insensitive
}

// pick returns vals at the column indices cols.
func pick(vals []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = vals[c]
	}
	return out
}

// columnGeomean is the geomean of column col across t's series: a sweep
// table's value at one sweep point over all sensitivity groups.
func columnGeomean(t stats.Table, col int) float64 {
	xs := make([]float64, len(t.Series))
	for i, s := range t.Series {
		xs[i] = s.Values[col]
	}
	return stats.Geomean(xs)
}

// series returns the values of t's series called name.
func series(t stats.Table, name string) ([]float64, bool) {
	for _, s := range t.Series {
		if s.Name == name {
			return s.Values, true
		}
	}
	return nil, false
}

// checkFig3Ordering: sensitive benchmarks slow down more than insensitive.
func checkFig3Ordering(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	sens, insens := partition(t.XLabels)
	slow := t.Series[0].Values
	s, i := stats.Geomean(pick(slow, sens)), stats.Geomean(pick(slow, insens))
	return s > i, fmt.Sprintf("sensitive geomean %.2f× vs insensitive %.2f×", s, i), nil
}

// worstGap returns the smallest (b-a)/100 over cols of two percent series
// and the label of its column ("" when cols is empty, gap 1).
func worstGap(t stats.Table, a, b []float64, cols []int) (float64, string) {
	worst, label := 1.0, ""
	for _, c := range cols {
		if gap := (b[c] - a[c]) / 100; gap < worst {
			worst, label = gap, t.XLabels[c]
		}
	}
	return worst, label
}

// allColumns returns the indices of every column of t.
func allColumns(t stats.Table) []int {
	cols := make([]int, len(t.XLabels))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// checkFig4Blowup: I-FAM AT share > E-FAM AT share everywhere.
func checkFig4Blowup(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	gap, bench := worstGap(t, t.Series[0].Values, t.Series[1].Values, allColumns(t))
	return gap > 0, fmt.Sprintf("smallest increase %.3f (%s)", gap, bench), nil
}

// checkFig9NBeatsW: DeACT-N ACM hit rate > DeACT-W on sensitive set, and
// DeACT-W within a few points of I-FAM on average (the paper's observation
// that W's extra contiguous coverage is wasted under random placement).
func checkFig9NBeatsW(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	sens, _ := partition(t.XLabels)
	mean := func(row int) float64 { return stats.Mean(pick(t.Series[row].Values, sens)) / 100 }
	i, w, n := mean(0), mean(1), mean(2)
	ok := n > w && w < i+0.10
	return ok, fmt.Sprintf("mean ACM hit: I-FAM %.2f, DeACT-W %.2f, DeACT-N %.2f", i, w, n), nil
}

// checkFig10DeACTHigh: DeACT translation hit > I-FAM per benchmark, strictly
// on the sensitive set where the STU cache thrashes.
func checkFig10DeACTHigh(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	sens, _ := partition(t.XLabels)
	gap, bench := worstGap(t, t.Series[0].Values, t.Series[1].Values, sens)
	return gap > 0, fmt.Sprintf("smallest sensitive-set gap %.3f (%s)", gap, bench), nil
}

// checkFig11Monotone: mean AT share I-FAM > DeACT-W > DeACT-N.
func checkFig11Monotone(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	i, w, n := stats.Mean(t.Series[0].Values), stats.Mean(t.Series[1].Values), stats.Mean(t.Series[2].Values)
	return i > w && w > n, fmt.Sprintf("mean AT share: %.1f%% → %.1f%% → %.1f%%", i, w, n), nil
}

// checkFig12Ordering: the headline performance ordering. The table prints
// performance normalized to E-FAM, so the raw IPCs come from the default
// runs Figure 12 submitted.
func checkFig12Ordering(ctx context.Context, r *Runner, t stats.Table) (bool, string, error) {
	schemes := []core.Scheme{core.EFAM, core.IFAM, core.DeACTW, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.IPC })
	if err != nil {
		return false, "", err
	}
	sens, _ := partition(t.XLabels)
	var ipc [4]float64
	for i, row := range rows {
		ipc[i] = stats.Mean(pick(row, sens))
	}
	e, i, w, n := ipc[0], ipc[1], ipc[2], ipc[3]
	ok := e >= n && n >= w && w > i
	return ok, fmt.Sprintf("sensitive-set mean IPC: E %.4f ≥ N %.4f ≥ W %.4f > I %.4f", e, n, w, i), nil
}

// checkFig13Shrinks: DeACT speedup at the smallest STU > at the largest.
func checkFig13Shrinks(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	last := len(t.XLabels) - 1
	small, large := columnGeomean(t, 0), columnGeomean(t, last)
	return small > large, fmt.Sprintf("stu=%s: %.2f× vs stu=%s: %.2f×",
		t.XLabels[0], small, t.XLabels[last], large), nil
}

// checkFig15Grows: speedup at the longest fabric latency > at the shortest.
func checkFig15Grows(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	last := len(t.XLabels) - 1
	short, long := columnGeomean(t, 0), columnGeomean(t, last)
	return long > short, fmt.Sprintf("fab=%s: %.2f× vs fab=%s: %.2f×",
		t.XLabels[last], long, t.XLabels[0], short), nil
}

// checkPairsMonotone: 3 pairs ≥ 2 pairs ≥ 1 pair.
func checkPairsMonotone(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	one, two, three := columnGeomean(t, 0), columnGeomean(t, 1), columnGeomean(t, 2)
	return three >= two && two >= one, fmt.Sprintf("1/2/3 pairs: %.2f/%.2f/%.2f×", one, two, three), nil
}

// checkFig16Grows: speedup at the most nodes > at one node for dc. The
// sweep runs only benchmarks in the set, so without dc there is nothing
// to judge.
func checkFig16Grows(_ context.Context, _ *Runner, t stats.Table) (bool, string, error) {
	dc, ok := series(t, "dc")
	if !ok {
		return false, "dc not in the benchmark set", nil
	}
	last := len(dc) - 1
	return dc[last] > dc[0], fmt.Sprintf("dc: %s node %.2f× vs %s nodes %.2f×",
		t.XLabels[0], dc[0], t.XLabels[last], dc[last]), nil
}
