package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"deact/internal/addr"
	"deact/internal/cache"
	"deact/internal/node"
	"deact/internal/stu"
	"deact/internal/translator"
	"deact/internal/workload"
)

// TestRunDeterministicFixedSeed: two serial runs of an identical config
// must produce bit-identical Results — the invariant every experiment
// (and the Runner's fingerprint-keyed dedup cache) rests on.
func TestRunDeterministicFixedSeed(t *testing.T) {
	for _, scheme := range []Scheme{IFAM, DeACTN} {
		cfg := quickConfig(scheme, "canl")
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 5_000
		a, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		b, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: fixed-seed runs diverged:\n%+v\n%+v", scheme, a, b)
		}
	}
}

// quickConfig returns a small, fast configuration for tests.
func quickConfig(scheme Scheme, bench string) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = bench
	cfg.CoresPerNode = 2
	cfg.WarmupInstructions = 20_000
	cfg.MeasureInstructions = 20_000
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.MeasureInstructions = 0 },
		func(c *Config) { c.STUEntries = 0 },
		func(c *Config) { c.Benchmark = "nope" },
		func(c *Config) { c.Layout.ACMBits = 9 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateCatchesGeometry: every cache, TLB and STU shape NewSystem
// would reject fails Validate with ErrInvalidConfig first, under every
// scheme, and the legal shapes next to them build.
func TestValidateCatchesGeometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		valid  bool
	}{
		{"stu 12x8", func(c *Config) { c.STUEntries, c.STUWays = 12, 8 }, false},
		{"stu 768x8", func(c *Config) { c.STUEntries = 768 }, false},
		{"stu zero ways", func(c *Config) { c.STUWays = 0 }, false},
		{"stu pairs", func(c *Config) { c.PairsPerWay = 4 }, false},
		{"l1 3-way", func(c *Config) { c.Hierarchy.L1Ways = 3 }, false},
		{"l3 size", func(c *Config) { c.Hierarchy.L3Size = 96 << 10 }, false},
		{"l1 tlb 24", func(c *Config) { c.MMU.L1Entries = 24 }, false},
		{"l2 tlb ways", func(c *Config) { c.MMU.L2Ways = 0 }, false},
		{"9 cores", func(c *Config) { c.CoresPerNode = cache.MaxCores + 1 }, false},
		{"8 cores", func(c *Config) { c.CoresPerNode = cache.MaxCores }, true},
		{"stu 2048x16", func(c *Config) { c.STUEntries, c.STUWays = 2048, 16 }, true},
		{"l1 4-way", func(c *Config) { c.Hierarchy.L1Ways = 4 }, true},
		{"l1 tlb 64", func(c *Config) { c.MMU.L1Entries = 64 }, true},
	} {
		for _, scheme := range Schemes() {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.valid {
				if err != nil {
					t.Errorf("%s/%v: Validate rejected a legal shape: %v", tc.name, scheme, err)
				} else if _, err := NewSystem(cfg); err != nil {
					t.Errorf("%s/%v: Validate passed but NewSystem failed: %v", tc.name, scheme, err)
				}
				continue
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s/%v: Validate = %v, want ErrInvalidConfig", tc.name, scheme, err)
			}
		}
	}
}

// TestValidateCatchesNodeRules: the node's own rules — LocalEveryN under
// every scheme, the translator's cache size and outstanding-list depth
// under the DeACT schemes that build one — fail Validate with
// ErrInvalidConfig before NewSystem runs. A scheme without a translator
// ignores its settings and still builds.
func TestValidateCatchesNodeRules(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mutate    func(*Config)
		deactOnly bool
	}{
		{"local every 0", func(c *Config) { c.LocalEveryN = 0 }, false},
		{"local every -1", func(c *Config) { c.LocalEveryN = -1 }, false},
		{"translation cache 0", func(c *Config) { c.TranslationCacheBytes = 0 }, true},
		{"translation cache 100", func(c *Config) { c.TranslationCacheBytes = 100 }, true},
		{"outstanding 0", func(c *Config) { c.Outstanding = 0 }, true},
	} {
		for _, scheme := range Schemes() {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.WarmupInstructions, cfg.MeasureInstructions = 0, 1000
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.deactOnly && !scheme.UsesDeACT() {
				if err != nil {
					t.Errorf("%s/%v: Validate rejected a setting the scheme ignores: %v", tc.name, scheme, err)
				} else if _, err := NewSystem(cfg); err != nil {
					t.Errorf("%s/%v: Validate passed but NewSystem failed: %v", tc.name, scheme, err)
				}
				continue
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s/%v: Validate = %v, want ErrInvalidConfig", tc.name, scheme, err)
			}
		}
	}
}

// TestValidateBoundsPageCounts: a FAM pool or node-physical space with
// more pages than a 32-bit page-table entry can name fails Validate with
// ErrInvalidConfig, so a POST cannot ask NewSystem for a system sized by
// an absurd pool. No system is built here: these configs only validate.
func TestValidateBoundsPageCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"FAMSize 1<<50", func(c *Config) { c.Layout.FAMSize = 1 << 50 }},
		{"FAMSize 2^32 pages", func(c *Config) { c.Layout.FAMSize = (addr.MaxPages + 1) * addr.PageSize }},
		{"FAMZoneSize 2^32 pages", func(c *Config) { c.Layout.FAMZoneSize = addr.MaxPages * addr.PageSize }},
		{"DRAMSize 1<<62", func(c *Config) { c.Layout.DRAMSize = 1 << 62 }},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestSchemesList(t *testing.T) {
	s := Schemes()
	if len(s) != 4 || s[0] != EFAM || s[3] != DeACTN {
		t.Fatalf("Schemes() = %v", s)
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	for _, scheme := range Schemes() {
		r, err := Run(context.Background(), quickConfig(scheme, "mcf"))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if r.Instructions == 0 || r.Duration == 0 {
			t.Fatalf("%v: empty result %+v", scheme, r)
		}
		if r.IPC <= 0 || r.IPC > 2 {
			t.Fatalf("%v: IPC %v outside (0,2]", scheme, r.IPC)
		}
		if r.MemOps == 0 || r.MPKI <= 0 {
			t.Fatalf("%v: no memory activity", scheme)
		}
		if scheme != EFAM && r.FAMAT == 0 {
			t.Fatalf("%v: no AT traffic", scheme)
		}
		if r.FAMData == 0 {
			t.Fatalf("%v: no data traffic", scheme)
		}
		if r.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestDeterminism(t *testing.T) {
	r1, err := Run(context.Background(), quickConfig(DeACTN, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), quickConfig(DeACTN, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.IPC != r2.IPC || r1.FAMAT != r2.FAMAT || r1.Duration != r2.Duration {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

// TestPaperOrdering checks the headline qualitative result (Table I and
// Figure 12): E-FAM ≥ DeACT-N ≥ I-FAM for an AT-sensitive benchmark.
func TestPaperOrdering(t *testing.T) {
	ipc := map[Scheme]float64{}
	for _, scheme := range Schemes() {
		r, err := Run(context.Background(), quickConfig(scheme, "canl"))
		if err != nil {
			t.Fatal(err)
		}
		ipc[scheme] = r.IPC
	}
	if !(ipc[EFAM] > ipc[IFAM]) {
		t.Errorf("E-FAM (%.4f) must beat I-FAM (%.4f)", ipc[EFAM], ipc[IFAM])
	}
	if !(ipc[DeACTN] > ipc[IFAM]) {
		t.Errorf("DeACT-N (%.4f) must beat I-FAM (%.4f) on an AT-sensitive benchmark", ipc[DeACTN], ipc[IFAM])
	}
	if !(ipc[EFAM] >= ipc[DeACTN]) {
		t.Errorf("E-FAM (%.4f) must bound DeACT-N (%.4f)", ipc[EFAM], ipc[DeACTN])
	}
}

// TestDeACTTranslationHitRateHigh verifies §V-A: the in-DRAM translation
// cache reaches far higher hit rates than I-FAM's STU cache.
func TestDeACTTranslationHitRateHigh(t *testing.T) {
	warm := func(s Scheme) Config {
		c := quickConfig(s, "canl")
		// canl touches ~12k pages; warm long enough that the measured phase
		// reflects steady state (the paper reports >90% there).
		c.WarmupInstructions = 100_000
		return c
	}
	rI, err := Run(context.Background(), warm(IFAM))
	if err != nil {
		t.Fatal(err)
	}
	rD, err := Run(context.Background(), warm(DeACTN))
	if err != nil {
		t.Fatal(err)
	}
	if rD.TranslationHitRate <= rI.TranslationHitRate {
		t.Fatalf("DeACT xlate hit %.3f not above I-FAM %.3f",
			rD.TranslationHitRate, rI.TranslationHitRate)
	}
	if rD.TranslationHitRate < 0.85 {
		t.Fatalf("DeACT xlate hit %.3f; paper reports >90%% steady state", rD.TranslationHitRate)
	}
}

// TestDeACTNBeatsDeACTWOnACM verifies the Figure 9 mechanism under random
// FAM placement.
func TestDeACTNBeatsDeACTWOnACM(t *testing.T) {
	rW, err := Run(context.Background(), quickConfig(DeACTW, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	rN, err := Run(context.Background(), quickConfig(DeACTN, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	if rN.ACMHitRate <= rW.ACMHitRate {
		t.Fatalf("DeACT-N ACM hit %.3f not above DeACT-W %.3f", rN.ACMHitRate, rW.ACMHitRate)
	}
}

// TestIFAMIncreasesATFraction verifies the Figure 4 effect: indirection
// turns modest AT traffic into the dominant FAM request class.
func TestIFAMIncreasesATFraction(t *testing.T) {
	rE, err := Run(context.Background(), quickConfig(EFAM, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	rI, err := Run(context.Background(), quickConfig(IFAM, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	if rI.ATFraction <= rE.ATFraction {
		t.Fatalf("I-FAM AT fraction %.3f not above E-FAM %.3f", rI.ATFraction, rE.ATFraction)
	}
}

// TestDeACTNReducesATRequests verifies the Figure 11 effect.
func TestDeACTNReducesATRequests(t *testing.T) {
	rI, err := Run(context.Background(), quickConfig(IFAM, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	rN, err := Run(context.Background(), quickConfig(DeACTN, "canl"))
	if err != nil {
		t.Fatal(err)
	}
	if rN.ATFraction >= rI.ATFraction {
		t.Fatalf("DeACT-N AT fraction %.3f not below I-FAM %.3f", rN.ATFraction, rI.ATFraction)
	}
}

func TestMultiNodeRuns(t *testing.T) {
	cfg := quickConfig(DeACTN, "pf")
	cfg.Nodes = 2
	cfg.WarmupInstructions = 10_000
	cfg.MeasureInstructions = 10_000
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NodeStats) != 2 {
		t.Fatalf("node stats = %d", len(r.NodeStats))
	}
	if r.NodeStats[0].FAMData == 0 || r.NodeStats[1].FAMData == 0 {
		t.Fatal("a node did no FAM work")
	}
}

// idleNodeStats is the node.Stats of a node that did nothing in a run of
// cfg: zero counters and one empty latency set per tenant.
func idleNodeStats(cfg Config) node.Stats {
	return node.Stats{Tenants: make([]node.TenantLatency, cfg.TenantCount())}
}

// TestResetStatsZeroesResultCounters: after a run, resetStats leaves every
// counter a Result reads at zero, so a Result covers exactly the phase
// after the warmup boundary. Each counter is first required to be nonzero
// where the scheme has it, so the check cannot pass on an idle system.
func TestResetStatsZeroesResultCounters(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg := quickConfig(scheme, "canl")
		cfg.Nodes = 2
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 5_000
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i, n := range s.nodes {
			switch {
			case reflect.DeepEqual(run.NodeStats[i], idleNodeStats(cfg)):
				t.Fatalf("%v node %d: idle node", scheme, i)
			case n.STU() != nil && run.STUStats[i] == stu.Stats{}:
				t.Fatalf("%v node %d: idle STU", scheme, i)
			case n.Translator() != nil && run.TranslatorStats[i] == translator.Stats{}:
				t.Fatalf("%v node %d: idle translator", scheme, i)
			}
		}
		if run.FAMReads == 0 || run.FabricPackets == 0 || run.MPKI == 0 {
			t.Fatalf("%v: no FAM, fabric or L3 traffic: %v", scheme, run)
		}

		s.resetStats()
		instrs, memOps := s.retired()
		r := s.result(s.engine.Now(), instrs, memOps)
		for i, n := range s.nodes {
			if !reflect.DeepEqual(r.NodeStats[i], idleNodeStats(cfg)) {
				t.Errorf("%v node %d: node stats survive reset: %+v", scheme, i, r.NodeStats[i])
			}
			if r.STUStats[i] != (stu.Stats{}) {
				t.Errorf("%v node %d: STU stats survive reset: %+v", scheme, i, r.STUStats[i])
			}
			if r.TranslatorStats[i] != (translator.Stats{}) {
				t.Errorf("%v node %d: translator stats survive reset: %+v", scheme, i, r.TranslatorStats[i])
			}
			h := n.Hierarchy()
			if m := h.L3Cache().Misses(); m != 0 {
				t.Errorf("%v node %d: %d L3 misses survive reset", scheme, i, m)
			}
			if l1 := h.L1Cache(0); l1.Hits() != 0 || l1.Misses() != 0 {
				t.Errorf("%v node %d: L1 counters survive reset", scheme, i)
			}
		}
		if r.FAMReads != 0 || r.FAMWrites != 0 || r.FabricPackets != 0 {
			t.Errorf("%v: FAM %d/%d and fabric %d survive reset", scheme, r.FAMReads, r.FAMWrites, r.FabricPackets)
		}
	}
}

// TestResultConservesFAMTraffic holds the two conservation laws of a
// measured phase with the prefetcher off: every request observed at FAM is
// one device access (translation metadata or data), and every device
// access is one fabric packet each way. A counter that kept its warmup
// total, or lost its reset, breaks one of them.
func TestResultConservesFAMTraffic(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg := quickConfig(scheme, "sssp")
		cfg.Nodes = 2
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 5_000
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		fam := r.FAMReads + r.FAMWrites
		if fam == 0 {
			t.Fatalf("%v: no FAM traffic", scheme)
		}
		if fam != r.FAMAT+r.FAMData {
			t.Errorf("%v: FAM reads+writes %d != FAMAT+FAMData %d", scheme, fam, r.FAMAT+r.FAMData)
		}
		if r.FabricPackets != 2*fam {
			t.Errorf("%v: fabric packets %d != 2 x FAM accesses %d", scheme, r.FabricPackets, fam)
		}
	}
}

func TestAllBenchmarksRunUnderDeACTN(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range workload.Names() {
		cfg := quickConfig(DeACTN, name)
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 10_000
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTrustReadsAtMostHelps(t *testing.T) {
	cfg := quickConfig(DeACTN, "mcf")
	base, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrustReads = true
	trusted, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trusted.IPC < base.IPC*0.97 {
		t.Fatalf("trusted reads slowed the run: %.5f vs %.5f", trusted.IPC, base.IPC)
	}
	var tr uint64
	for _, st := range trusted.STUStats {
		tr += st.TrustedReads
	}
	if tr == 0 {
		t.Fatal("no trusted reads recorded")
	}
}
