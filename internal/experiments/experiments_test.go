package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"deact/internal/core"
)

// tinyOptions keeps test runtime low: a reduced benchmark set spanning both
// sensitivity classes.
func tinyOptions() Options {
	return Options{
		Warmup: 40_000, Measure: 30_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "sp", "pf", "dc"},
	}
}

func TestTableIAndII(t *testing.T) {
	if !strings.Contains(TableI(), "DeACT") || !strings.Contains(TableI(), "E-FAM") {
		t.Fatal("Table I incomplete")
	}
	ii := TableII()
	for _, want := range []string{"STU cache", "Fabric", "FAM (NVM)", "TLB"} {
		if !strings.Contains(ii, want) {
			t.Fatalf("Table II missing %q:\n%s", want, ii)
		}
	}
}

func TestTableIII(t *testing.T) {
	r := New(tinyOptions())
	tbl, err := r.TableIII(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	for i, v := range tbl.Series[1].Values {
		if v <= 0 {
			t.Fatalf("measured MPKI %d non-positive", i)
		}
	}
}

func TestFigure3SlowdownAboveOne(t *testing.T) {
	r := New(tinyOptions())
	tbl, err := r.Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tbl.Series[0].Values {
		if v < 0.95 {
			t.Fatalf("benchmark %s: I-FAM slowdown %.2f < 1", tbl.XLabels[i], v)
		}
	}
}

func TestFigure12OrderingOnSensitiveSet(t *testing.T) {
	ctx := context.Background()
	r := New(tinyOptions())
	tbl, err := r.Figure12(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ok, detail, err := checkFig12Ordering(ctx, r, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("figure 12 ordering violated: %s", detail)
	}
}

func TestFigure4And11Checks(t *testing.T) {
	ctx := context.Background()
	r := New(tinyOptions())
	fig4, err := r.Figure4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ok, detail, err := checkFig4Blowup(ctx, r, fig4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("fig4: %s", detail)
	}
	fig11, err := r.Figure11(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ok, detail, err = checkFig11Monotone(ctx, r, fig11)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("fig11: %s", detail)
	}
}

func TestFigure9And10Checks(t *testing.T) {
	ctx := context.Background()
	r := New(tinyOptions())
	fig9, err := r.Figure9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ok, detail, err := checkFig9NBeatsW(ctx, r, fig9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("fig9: %s", detail)
	}
	fig10, err := r.Figure10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ok, detail, err = checkFig10DeACTHigh(ctx, r, fig10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("fig10: %s", detail)
	}
}

func TestRunnerCachesRuns(t *testing.T) {
	ctx := context.Background()
	r := New(tinyOptions())
	if _, err := r.Run(ctx, r.config(core.EFAM, "mcf", nil)); err != nil {
		t.Fatal(err)
	}
	n := r.CachedRuns()
	if _, err := r.Run(ctx, r.config(core.EFAM, "mcf", nil)); err != nil {
		t.Fatal(err)
	}
	if r.CachedRuns() != n {
		t.Fatal("identical run not cached")
	}
	if r.Options().Seed != 42 {
		t.Fatal("options accessor wrong")
	}
}

func TestFigure16TwoSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep is slow")
	}
	o := tinyOptions()
	o.Warmup, o.Measure = 15_000, 15_000
	r := New(o)
	tbl, err := r.Figure16(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("fig16 series = %d, want pf and dc", len(tbl.Series))
	}
}

func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	o := Options{Warmup: 10_000, Measure: 10_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"canl", "sp", "pf", "dc"}}
	var buf bytes.Buffer
	if err := Report(context.Background(), &buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 12", "Figure 16", "Table III", "PASS", "distinct simulation runs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestRegistry pins the registry every consumer reads: the paper's
// experiments in report order, one entry per sweep name, complete additive
// entries, and Report rejecting an unknown section before it simulates.
func TestRegistry(t *testing.T) {
	paper := []string{"Table III", "Figure 3", "Figure 4", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "Figure 13", "§V-D1 associativity", "Figure 14",
		"§V-D2 pairs/way", "Figure 15", "Figure 16", "§III-A read trust"}
	sweeps := []string{"stu", "assoc", "acm", "pairs", "fabric", "nodes", "capacity", "prefetch", "mlp"}
	reg := Registry()

	t.Run("paper ids in order", func(t *testing.T) {
		var got []string
		for _, e := range reg {
			if !e.Additive {
				got = append(got, e.ID)
			}
		}
		if !slices.Equal(got, paper) {
			t.Fatalf("paper experiments = %q, want %q", got, paper)
		}
	})
	t.Run("sweep names unique", func(t *testing.T) {
		if got := SweepNames(); !slices.Equal(got, sweeps) {
			t.Fatalf("SweepNames() = %q, want %q", got, sweeps)
		}
		for _, name := range sweeps {
			n := 0
			for _, e := range reg {
				if e.Sweep == name {
					n++
				}
			}
			if e, ok := Lookup(name); n != 1 || !ok || e.Sweep != name {
				t.Errorf("sweep %q: %d entries, Lookup ok=%v", name, n, ok)
			}
		}
		if _, ok := Lookup(""); ok {
			t.Error(`Lookup("") matched a non-sweep entry`)
		}
	})
	t.Run("additive entries complete", func(t *testing.T) {
		for _, e := range reg {
			if e.Additive && (e.Sweep == "" || e.Prose == "" || e.RunsLabel == "" || len(e.expect) == 0) {
				t.Errorf("additive entry %q lacks a sweep name, prose, runs label or check", e.ID)
			}
		}
	})
	t.Run("unknown section rejected before simulating", func(t *testing.T) {
		for _, name := range []string{"bogus", "stu", ""} {
			calls := 0
			o := tinyOptions()
			o.OnRunDone = func(RunInfo) { calls++ }
			var buf bytes.Buffer
			if err := Report(context.Background(), &buf, o, "capacity", name); err == nil {
				t.Errorf("Report accepted section %q", name)
			}
			if calls != 0 || buf.Len() != 0 {
				t.Errorf("section %q: %d runs, %d bytes before the error", name, calls, buf.Len())
			}
		}
	})
}
