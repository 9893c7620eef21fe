package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deact/internal/experiments"
)

// TestGenerateCancelledWritesNothing: a SIGINT-style cancellation must
// surface context.Canceled (→ nonzero exit in main) and must not leave a
// partial output file behind.
func TestGenerateCancelledWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the SIGINT already happened
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	opts := experiments.Options{Warmup: 1_000, Measure: 1_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf"}, Parallelism: 1}
	err := generate(ctx, opts, nil, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("cancelled run left an output file behind (stat err: %v)", statErr)
	}
}

// TestGenerateWritesOnSuccess: the buffered path still produces the file.
func TestGenerateWritesOnSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny report still simulates")
	}
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	opts := experiments.Options{Warmup: 2_000, Measure: 2_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "dc"}, Parallelism: 2}
	if err := generate(context.Background(), opts, nil, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty report written")
	}
}

// goldenFlags are the golden-report CI job's REPORT_FLAGS: the -short
// scale, with every additive section so each is byte-held too.
const goldenFlags = "-warmup 4000 -measure 4000 -cores 1 -benchmarks mcf,canl,sp,dc -parallelism 2 -capacity -prefetch -mlp"

// TestGoldenReportShort renders the report in-process with the golden
// flags and byte-compares it with testdata/golden-report-short.md, so a
// change to any simulated number the report prints fails the plain test
// run, not only the CI golden job. It takes about a second and runs under
// -short too. After an intentional modeling change, regenerate the golden
// with `go run ./cmd/deact-report -out testdata/golden-report-short.md`
// and the flags above.
func TestGoldenReportShort(t *testing.T) {
	inv, err := parseArgs(flag.NewFlagSet("deact-report", flag.ContinueOnError), strings.Fields(goldenFlags))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := experiments.Report(context.Background(), &got, inv.opts, inv.sections...); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-report-short.md"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report drifted from testdata/golden-report-short.md at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
