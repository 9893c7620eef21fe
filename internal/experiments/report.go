package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
)

// Report runs every paper experiment and writes a markdown report to w,
// followed by the additive sections named in sections (sweep names of
// Additive registry entries), which are emitted in registry order whatever
// order they are requested in. An unknown section name is an error before
// anything is simulated. The output is deterministic for a given Options
// scale and seed — independent of Parallelism and of when it was
// generated — so regenerated reports diff cleanly. Cancelling ctx aborts
// the in-flight simulations at the next event-loop stride and returns
// ctx.Err(); Report does not return until every worker goroutine has
// exited.
func Report(ctx context.Context, w io.Writer, opts Options, sections ...string) error {
	for _, name := range sections {
		if e, ok := Lookup(name); !ok || !e.Additive {
			return fmt.Errorf("unknown report section %q", name)
		}
	}
	var base, additive []Experiment
	for _, e := range Registry() {
		switch {
		case !e.Additive:
			base = append(base, e)
		case slices.Contains(sections, e.Sweep):
			additive = append(additive, e)
		}
	}

	r := New(opts)
	defer r.WaitIdle()
	// Warm the cache with the scheme×benchmark default grid through the
	// worker pool: Table III and Figures 3, 4, 9–12 all assemble from it.
	if err := r.prefetchDefaults(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "# EXPERIMENTS — DeACT reproduction, paper vs measured\n\n")
	fmt.Fprintf(w, "Generated by `cmd/deact-report` (options: warmup=%d measure=%d cores=%d seed=%d).\n\n",
		opts.Warmup, opts.Measure, opts.Cores, opts.Seed)
	fmt.Fprintf(w, "Absolute numbers are not expected to match the paper (the substrate is a\n")
	fmt.Fprintf(w, "fresh simulator at 1/4 capacity scale, see ARCHITECTURE.md); each experiment\n")
	fmt.Fprintf(w, "instead carries the paper's qualitative claim and a measured PASS/FAIL.\n\n")
	fmt.Fprintf(w, "```\n%s```\n\n```\n%s```\n\n", TableI(), TableII())

	for _, e := range base {
		if err := writeSection(ctx, w, r, e); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "Total distinct simulation runs: %d.\n", r.CachedRuns())

	// Additive sections come after the closing runs line (whose count
	// therefore still covers exactly the paper experiments above), so a
	// report with them differs from one without only by appended lines.
	for _, e := range additive {
		before := r.CachedRuns()
		fmt.Fprintf(w, "\n")
		if err := writeSection(ctx, w, r, e); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s: %d additional simulations.\n", e.RunsLabel, r.CachedRuns()-before)
	}
	return nil
}

// writeSection renders one experiment: heading, optional prose, table and
// one PASS/FAIL line per expectation, each judged on that table.
func writeSection(ctx context.Context, w io.Writer, r *Runner, e Experiment) error {
	tbl, err := e.Run(ctx, r)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.PaperRef)
	if e.Prose != "" {
		fmt.Fprintf(w, "%s\n", e.Prose)
	}
	fmt.Fprintf(w, "```\n%s```\n\n", tbl.Render())
	for _, ex := range e.expect {
		ok, detail, err := ex.check(ctx, r, tbl)
		if err != nil {
			return fmt.Errorf("%s check: %w", e.ID, err)
		}
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "- **%s** — %s: %s (%s)\n", verdict, ex.id, ex.claim, detail)
	}
	return nil
}
