// Command benchgate enforces a benchmark-regression budget between two
// `go test -bench` output files (typically the PR base and head runs of the
// CI bench smoke). It parses the standard benchmark output format, takes
// the median across repeated -count runs, and fails when a gated benchmark
// regresses:
//
//   - time/op worse than the -budget percent (default 20), or
//   - allocs/op worse at all (the hot paths are allocation-free by
//     construction; any new steady-state allocation is a bug).
//
// Usage:
//
//	benchgate [-gate regexp] [-budget pct] base.txt head.txt
//
// -budget is the regression budget in percent; a PR that knowingly trades
// time for a feature raises it explicitly in its CI invocation (and says so
// in the PR), rather than editing the gate's default. -max-time-regress is
// the deprecated spelling of the same knob, kept for existing invocations;
// when both are set, -budget wins.
//
// Only benchmarks matching -gate AND present in both files are enforced;
// benchmarks that exist on one side only (added or removed by the PR) are
// reported but never fail the gate. benchstat remains the human-readable
// comparison; this tool is the deterministic pass/fail criterion, so the
// gate does not depend on parsing benchstat's display format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ExitOnError)
	var (
		gate    = fs.String("gate", `^(BenchmarkEngine|BenchmarkCoreRun)\b`, "regexp selecting enforced benchmarks")
		budget  = fs.Float64("budget", 20, "time/op regression budget in percent")
		oldPct  = fs.Float64("max-time-regress", 20, "deprecated alias for -budget (ignored when -budget is set)")
		minRuns = fs.Int("min-samples", 1, "minimum samples per side for a benchmark to be enforced")
	)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(out, "usage: benchgate [-gate regexp] [-budget pct] base.txt head.txt")
		return 2
	}
	// Resolve the budget: -budget when set, else the deprecated alias, else
	// the shared default.
	maxPct := budget
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["budget"] && set["max-time-regress"] {
		maxPct = oldPct
	}
	re, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintln(out, "benchgate: bad -gate:", err)
		return 2
	}

	base, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(out, "benchgate:", err)
		return 2
	}
	head, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(out, "benchgate:", err)
		return 2
	}

	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)

	// Gated benchmarks that existed in the base but vanished from the head
	// are reported too — a silently deleted guard must be visible in the
	// gate output even though it cannot be compared.
	removed := make([]string, 0, len(base))
	for name := range base {
		if _, ok := head[name]; !ok && re.MatchString(name) {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(out, "SKIP %-40s gated benchmark removed by this change\n", name)
	}

	failed := false
	enforced := 0
	for _, name := range names {
		if !re.MatchString(name) {
			continue
		}
		h := head[name]
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(out, "SKIP %-40s new benchmark, no base to compare\n", name)
			continue
		}
		if len(h.TimeNS) < *minRuns || len(b.TimeNS) < *minRuns {
			fmt.Fprintf(out, "SKIP %-40s too few samples (base %d, head %d)\n", name, len(b.TimeNS), len(h.TimeNS))
			continue
		}
		enforced++
		bt, ht := median(b.TimeNS), median(h.TimeNS)
		delta := 100 * (ht - bt) / bt
		status := "ok  "
		if delta > *maxPct {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(out, "%s %-40s time/op %12.1f → %12.1f ns  (%+.1f%%, limit +%.0f%%)\n",
			status, name, bt, ht, delta, *maxPct)

		if len(b.AllocsPerOp) > 0 && len(h.AllocsPerOp) > 0 {
			ba, ha := medianInt(b.AllocsPerOp), medianInt(h.AllocsPerOp)
			status := "ok  "
			if ha > ba {
				status = "FAIL"
				failed = true
			}
			fmt.Fprintf(out, "%s %-40s allocs/op %10d → %10d      (any increase fails)\n", status, name, ba, ha)
		}
	}
	if enforced == 0 {
		fmt.Fprintln(out, "benchgate: no gated benchmark present in both files — nothing enforced")
		return 2
	}
	if failed {
		fmt.Fprintln(out, "benchgate: FAIL")
		return 1
	}
	fmt.Fprintln(out, "benchgate: PASS")
	return 0
}
