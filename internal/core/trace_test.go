package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"deact/internal/trace"
)

// recordRun executes cfg with a recorder attached and returns the Result
// and the decoded trace.
func recordRun(t *testing.T, cfg Config) (Result, *trace.Trace) {
	t.Helper()
	rec := trace.NewRecorder(cfg.Benchmark, cfg.Nodes*cfg.CoresPerNode)
	res, err := Run(context.Background(), cfg, WithTraceRecorder(rec))
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	tr, err := trace.Decode(rec.Encode())
	if err != nil {
		t.Fatalf("decode recording: %v", err)
	}
	return res, tr
}

// TestRecordReplayBitIdentical: replaying a recording through the same
// machine reproduces the recorded run's Result exactly — the contract the
// CI trace round-trip smoke checks end to end via deact-sim stdout.
func TestRecordReplayBitIdentical(t *testing.T) {
	for _, scheme := range []Scheme{IFAM, DeACTN} {
		cfg := quickConfig(scheme, "canl")
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 5_000
		recorded, tr := recordRun(t, cfg)

		replayCfg := cfg
		replayCfg.TraceID = tr.ID()
		replayed, err := Run(context.Background(), replayCfg, WithTrace(tr))
		if err != nil {
			t.Fatalf("%v: replay: %v", scheme, err)
		}
		if !reflect.DeepEqual(recorded, replayed) {
			t.Fatalf("%v: replay diverged from recording:\nrec: %+v\nrep: %+v", scheme, recorded, replayed)
		}
	}
}

// TestReplayRecordingIsDrawIdentical: attaching a recorder does not
// perturb the run — a tapped run's Result equals an untapped one's.
func TestReplayRecordingIsDrawIdentical(t *testing.T) {
	cfg := quickConfig(DeACTN, "mcf")
	cfg.WarmupInstructions = 5_000
	cfg.MeasureInstructions = 5_000
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded, _ := recordRun(t, cfg)
	if !reflect.DeepEqual(plain, recorded) {
		t.Fatalf("recording perturbed the run:\nplain: %+v\ntapped: %+v", plain, recorded)
	}
}

// TestReplayGuards: the run/trace pairing is validated up front — both
// options at once, a TraceID without a trace, a trace without a TraceID, a
// mismatched ID and a core-count mismatch all fail before simulating.
func TestReplayGuards(t *testing.T) {
	cfg := quickConfig(DeACTN, "canl")
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 2_000
	_, tr := recordRun(t, cfg)
	rec := trace.NewRecorder(cfg.Benchmark, cfg.Nodes*cfg.CoresPerNode)

	run := func(c Config, opts ...RunOption) error {
		_, err := Run(context.Background(), c, opts...)
		return err
	}
	if err := run(cfg, WithTrace(tr), WithTraceRecorder(rec)); err == nil {
		t.Error("record+replay together accepted")
	}
	idCfg := cfg
	idCfg.TraceID = tr.ID()
	if err := run(idCfg); err == nil {
		t.Error("TraceID without WithTrace accepted")
	}
	if err := run(cfg, WithTrace(tr)); err == nil {
		t.Error("WithTrace without Config.TraceID accepted")
	}
	wrongID := cfg
	wrongID.TraceID = "0123456789abcdef0123456789abcdef"
	if err := run(wrongID, WithTrace(tr)); err == nil {
		t.Error("mismatched TraceID accepted")
	}
	narrow := idCfg
	narrow.CoresPerNode = 1 // trace was recorded with 2
	if err := run(narrow, WithTrace(tr)); err == nil {
		t.Error("core-count mismatch accepted")
	}
	wideRec := trace.NewRecorder(cfg.Benchmark, 99)
	if err := run(cfg, WithTraceRecorder(wideRec)); err == nil {
		t.Error("recorder stream-count mismatch accepted")
	}
}

// TestValidateWorkloadV2Fields: the new Config fields reject inconsistent
// values with ErrInvalidConfig like every other validation failure.
func TestValidateWorkloadV2Fields(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Pattern = "spiral" },
		func(c *Config) { c.PatternDegree = -1 },
		func(c *Config) { c.PatternDegree = 4 }, // degree without a pattern
		func(c *Config) { c.PrefetchStreams = -1 },
		func(c *Config) { c.PrefetchDegree = -2 },
		func(c *Config) { c.PrefetchThreshold = -1 },
		func(c *Config) { c.PrefetchDegree = 2 }, // prefetch knobs without streams
		func(c *Config) { c.TraceID = "abc"; c.Pattern = "stencil" },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("mutation %d validated", i)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("mutation %d: error %v is not ErrInvalidConfig", i, err)
		}
	}
	good := DefaultConfig()
	good.Pattern = "pointer-chase"
	good.PatternDegree = 8
	good.PrefetchStreams = 64
	good.PrefetchDegree = 2
	good.PrefetchThreshold = 2
	if err := good.Validate(); err != nil {
		t.Fatalf("valid v2 config rejected: %v", err)
	}
}

// TestPatternConfigsRun: every v2 pattern runs end to end through the full
// machine, deterministically.
func TestPatternConfigsRun(t *testing.T) {
	for _, pattern := range []string{"pointer-chase", "graph-frontier", "stencil"} {
		cfg := quickConfig(DeACTN, "mcf")
		cfg.Pattern = pattern
		cfg.WarmupInstructions = 4_000
		cfg.MeasureInstructions = 4_000
		a, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		b, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: nondeterministic", pattern)
		}
		if a.MemOps == 0 {
			t.Fatalf("%s: no memory traffic", pattern)
		}
	}
}

// TestPrefetchConfigRuns: enabling the prefetcher changes behaviour (stats
// appear), stays deterministic, and leaving it off matches the zero config
// exactly.
func TestPrefetchConfigRuns(t *testing.T) {
	base := quickConfig(DeACTN, "mcf")
	base.Pattern = "stencil"
	base.WarmupInstructions = 4_000
	base.MeasureInstructions = 4_000

	off, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range off.NodeStats {
		if ns.Prefetch.Observed != 0 || ns.Prefetch.Issued != 0 {
			t.Fatalf("disabled prefetcher has stats: %+v", ns.Prefetch)
		}
	}

	on := base
	on.PrefetchStreams = 64
	on.PrefetchDegree = 4
	on.PrefetchThreshold = 2
	a, err := Run(context.Background(), on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), on)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("prefetch-enabled run nondeterministic")
	}
	var issued uint64
	for _, ns := range a.NodeStats {
		issued += ns.Prefetch.Issued
	}
	if issued == 0 {
		t.Fatal("stencil under a degree-4 prefetcher issued nothing")
	}
	if on.Fingerprint() == base.Fingerprint() {
		t.Fatal("prefetch config change did not move the config fingerprint")
	}
}
