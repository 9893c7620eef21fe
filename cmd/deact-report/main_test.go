package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
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
