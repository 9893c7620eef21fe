package cli

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deact/internal/experiments"
)

// TestFlagGroupsParse pins the shared flag surface: names, defaults and
// the Options assembly, including opening the result store for -store.
func TestFlagGroupsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sc := ScaleFlags(fs, 80_000, 60_000, 2)
	rn := RunnerFlags(fs)
	pf := ProfilingFlags(fs, "the run")
	dir := filepath.Join(t.TempDir(), "store")
	if err := fs.Parse([]string{
		"-warmup", "1000", "-measure", "2000", "-cores", "3", "-seed", "7",
		"-benchmarks", "mcf,sp", "-parallelism", "2",
		"-store", dir,
	}); err != nil {
		t.Fatal(err)
	}
	opts, err := rn.Options(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Warmup != 1000 || opts.Measure != 2000 || opts.Cores != 3 || opts.Seed != 7 {
		t.Fatalf("scale flags not threaded into Options: %+v", opts)
	}
	if !reflect.DeepEqual(opts.Benchmarks, []string{"mcf", "sp"}) {
		t.Fatalf("benchmarks = %v", opts.Benchmarks)
	}
	if opts.Parallelism != 2 {
		t.Fatalf("runner flags not threaded into Options: %+v", opts)
	}
	if opts.Store == nil {
		t.Fatal("-store did not open a result store")
	}
	if pf.CPU != "" || pf.Mem != "" {
		t.Fatalf("profiling flags defaulted on: %+v", pf)
	}
}

// TestFlagGroupDefaults: per-command defaults land, the store stays off,
// and the benchmark subset stays nil (meaning "all").
func TestFlagGroupDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sc := ScaleFlags(fs, 60_000, 50_000, 4)
	rn := RunnerFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts, err := rn.Options(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Warmup != 60_000 || opts.Measure != 50_000 || opts.Cores != 4 || opts.Seed != 42 {
		t.Fatalf("defaults not honored: %+v", opts)
	}
	if opts.Benchmarks != nil || opts.Store != nil {
		t.Fatalf("optional knobs defaulted on: %+v", opts)
	}
}

// TestBenchmarksRejectedBeforeRunning: an unknown or repeated -benchmarks
// name fails Options, so no command simulates a run before it errors or
// renders a duplicate column, and the error lists the valid names.
func TestBenchmarksRejectedBeforeRunning(t *testing.T) {
	sc := &Scale{Measure: 1000, Cores: 1}
	for _, list := range []string{"mcf,fooo", "mcf,mcf", "mcf,,sp"} {
		_, err := (&Runner{Benchmarks: list}).Options(sc)
		if err == nil {
			t.Errorf("-benchmarks %s accepted", list)
			continue
		}
		if !strings.Contains(err.Error(), "sssp") {
			t.Errorf("-benchmarks %s: error %q does not list the valid names", list, err)
		}
	}
}

// TestProgressPrinterCached: the progress line surfaces a running cached
// tally once any run is served from the store, and stays silent before.
func TestProgressPrinterCached(t *testing.T) {
	var buf strings.Builder
	p := ProgressPrinter(&buf)

	p(experiments.RunInfo{Completed: 1, Submitted: 3})
	if got := buf.String(); strings.Contains(got, "cached") {
		t.Fatalf("cached tally shown before any cached run: %q", got)
	}
	if !strings.Contains(buf.String(), "runs: 1/3 completed") {
		t.Fatalf("progress line missing: %q", buf.String())
	}

	buf.Reset()
	p(experiments.RunInfo{Completed: 2, Submitted: 3, Cached: true})
	if got := buf.String(); !strings.Contains(got, "runs: 2/3 completed (1 cached)") {
		t.Fatalf("cached tally missing: %q", got)
	}

	// The tally is cumulative and persists on later uncached updates.
	buf.Reset()
	p(experiments.RunInfo{Completed: 3, Submitted: 3})
	if got := buf.String(); !strings.Contains(got, "runs: 3/3 completed (1 cached)") {
		t.Fatalf("cumulative tally wrong: %q", got)
	}
}
