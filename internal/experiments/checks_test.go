package experiments

import (
	"context"
	"strings"
	"testing"

	"deact/internal/stats"
)

// tableOf builds a hand-made experiment table.
func tableOf(labels []string, series ...stats.Series) stats.Table {
	return stats.Table{XLabels: labels, Series: series}
}

func ser(name string, vals ...float64) stats.Series {
	return stats.Series{Name: name, Values: vals}
}

// TestChecksJudgeTheirTable feeds every table-only check one table it must
// pass and one it must fail, with a nil Runner: a check that simulated, or
// read anything but its table, would panic here. Ties fail the strict
// comparisons.
func TestChecksJudgeTheirTable(t *testing.T) {
	checks := map[string]func(context.Context, *Runner, stats.Table) (bool, string, error){}
	for _, e := range Registry() {
		for _, ex := range e.expect {
			checks[ex.id] = ex.check
		}
	}
	bench := []string{"canl", "sp"} // AT-sensitive, insensitive
	sweep := []string{"256", "1024", "4096"}
	fabric := []string{"100ns", "1us", "6us"}
	pairs := []string{"1 pair", "2 pair", "3 pair"}
	nodes := []string{"1", "2", "4", "8"}
	capacity := func(ifam, deact float64) stats.Table {
		return tableOf([]string{"2n/2t", "8n/4t"},
			ser("I-FAM steady xlate p99", 1, ifam), ser("I-FAM steady FAM p99", 1, 1), ser("I-FAM noisy FAM p99", 1, 1),
			ser("DeACT-N steady xlate p99", 1, deact), ser("DeACT-N steady FAM p99", 1, 1), ser("DeACT-N noisy FAM p99", 1, 1))
	}
	mlp := func(chase, stencil float64) stats.Table {
		return tableOf([]string{"W=1", "W=8", "W=32"},
			ser("I-FAM mcf/chase", 1, 1, 9), ser("I-FAM mcf/stencil", 1, 1, 9),
			ser("DeACT-N mcf/chase", 1, 1, chase), ser("DeACT-N mcf/frontier", 1, 1, 9), ser("DeACT-N mcf/stencil", 1, 1, stencil))
	}
	cases := []struct {
		id     string
		tbl    stats.Table
		want   bool
		detail string // substring the detail must contain; "" skips
	}{
		{"fig3-sensitive-worst", tableOf(bench, ser("I-FAM slowdown", 3, 1.1)), true, "sensitive geomean 3.00× vs insensitive 1.10×"},
		{"fig3-sensitive-worst", tableOf(bench, ser("I-FAM slowdown", 1.1, 3)), false, ""},

		{"fig4-indirection-blowup", tableOf(bench, ser("E-FAM AT", 10, 20), ser("I-FAM AT", 30, 25)), true, "smallest increase 0.050 (sp)"},
		{"fig4-indirection-blowup", tableOf(bench, ser("E-FAM AT", 10, 20), ser("I-FAM AT", 30, 20)), false, "smallest increase 0.000 (sp)"},

		{"fig9-n-beats-w", tableOf(bench, ser("I-FAM", 50, 0), ser("DeACT-W", 55, 0), ser("DeACT-N", 90, 0)), true, "I-FAM 0.50, DeACT-W 0.55, DeACT-N 0.90"},
		{"fig9-n-beats-w", tableOf(bench, ser("I-FAM", 50, 0), ser("DeACT-W", 55, 0), ser("DeACT-N", 55, 0)), false, ""},
		{"fig9-n-beats-w", tableOf(bench, ser("I-FAM", 40, 0), ser("DeACT-W", 55, 0), ser("DeACT-N", 90, 0)), false, ""},

		// The insensitive column may tie: only the sensitive set is judged.
		{"fig10-deact-high", tableOf(bench, ser("I-FAM", 40, 99), ser("DeACT", 95, 99)), true, "smallest sensitive-set gap 0.550 (canl)"},
		{"fig10-deact-high", tableOf(bench, ser("I-FAM", 95, 10), ser("DeACT", 95, 90)), false, "gap 0.000 (canl)"},

		{"fig11-monotone", tableOf(bench, ser("I-FAM", 30, 20), ser("DeACT-W", 20, 10), ser("DeACT-N", 5, 1)), true, "25.0% → 15.0% → 3.0%"},
		{"fig11-monotone", tableOf(bench, ser("I-FAM", 30, 20), ser("DeACT-W", 30, 20), ser("DeACT-N", 5, 1)), false, ""},

		{"fig13-shrinking-gain", tableOf(sweep, ser("SPEC", 2, 1.5, 1.2), ser("dc", 2, 1.5, 1.2)), true, "stu=256: 2.00× vs stu=4096: 1.20×"},
		{"fig13-shrinking-gain", tableOf(sweep, ser("SPEC", 1.2, 1.5, 2), ser("dc", 1.5, 1.5, 1.6)), false, ""},

		{"fig14-pairs-monotone", tableOf(pairs, ser("SPEC", 1.1, 1.2, 1.3)), true, "1/2/3 pairs: 1.10/1.20/1.30×"},
		{"fig14-pairs-monotone", tableOf(pairs, ser("SPEC", 1.1, 1.3, 1.2)), false, ""},

		{"fig15-growing-gain", tableOf(fabric, ser("SPEC", 1.5, 2, 2.5)), true, "fab=6us: 2.50× vs fab=100ns: 1.50×"},
		{"fig15-growing-gain", tableOf(fabric, ser("SPEC", 1.5, 2, 1.5)), false, ""},

		{"fig16-growing-gain", tableOf(nodes, ser("pf", 3, 2, 2, 1), ser("dc", 2, 2.5, 3, 3.5)), true, "dc: 1 node 2.00× vs 8 nodes 3.50×"},
		{"fig16-growing-gain", tableOf(nodes, ser("pf", 1, 2, 3, 4), ser("dc", 3, 3, 3, 3)), false, ""},
		{"fig16-growing-gain", tableOf(nodes, ser("pf", 1, 2, 3, 4)), false, "dc not in the benchmark set"},

		{"read-trust-never-hurts", tableOf(bench, ser("trusted-read speedup", 1, 1.21)), true, "min speedup 1.000, geomean 1.100"},
		{"read-trust-never-hurts", tableOf(bench, ser("trusted-read speedup", 0.9, 1.2)), false, ""},

		{"capacity-deact-shields-steady", capacity(2, 2.1), true, "ratio 1.050"},
		{"capacity-deact-shields-steady", capacity(2, 2.5), false, "ratio 1.250"},

		{"mlp-separates-dependence", mlp(1.02, 3), true, "W=1 to W=32 IPC gain: chase 1.020x, stencil 3.000x"},
		{"mlp-separates-dependence", mlp(1.3, 3), false, ""},
		{"mlp-separates-dependence", mlp(1, 1.2), false, ""},
	}
	verdicts := map[string][2]bool{} // per check: saw FAIL, saw PASS
	for _, tc := range cases {
		check, ok := checks[tc.id]
		if !ok {
			t.Fatalf("no check %q in the registry", tc.id)
		}
		got, detail, err := check(context.Background(), nil, tc.tbl)
		if err != nil {
			t.Errorf("%s: %v", tc.id, err)
			continue
		}
		if got != tc.want || !strings.Contains(detail, tc.detail) {
			t.Errorf("%s on %v = %v (%s), want %v (%s)", tc.id, tc.tbl.Series, got, detail, tc.want, tc.detail)
		}
		v := verdicts[tc.id]
		if tc.want {
			v[1] = true
		} else {
			v[0] = true
		}
		verdicts[tc.id] = v
	}
	for id := range checks {
		if id == "fig12-ordering" || id == "prefetch-detects-streams" {
			continue // they read runs the table does not print
		}
		if v := verdicts[id]; !v[0] || !v[1] {
			t.Errorf("check %q lacks a passing or a failing table", id)
		}
	}
}
