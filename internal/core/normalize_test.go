package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"deact/internal/sim"
)

// unreadPerturbations draws a random valid value for each field the
// normalization may zero. A field that normalized starts zeroing needs an
// entry here before the irrelevance oracle can vouch for it.
var unreadPerturbations = map[string]func(*rand.Rand, *Config){
	"Config.STUEntries": func(p *rand.Rand, c *Config) {
		c.STUEntries = []int{128, 256, 512, 2048, 4096}[p.Intn(5)] // 8 ways: power-of-two sets
	},
	"Config.STUWays": func(p *rand.Rand, c *Config) {
		c.STUWays = []int{1, 2, 4, 16}[p.Intn(4)] // 1024 entries: power-of-two sets
	},
	"Config.PairsPerWay": func(p *rand.Rand, c *Config) { c.PairsPerWay = 1 + p.Intn(3) },
	"Config.STULookup":   func(p *rand.Rand, c *Config) { c.STULookup = sim.Time(1 + p.Int63n(20_000)) },
	"Config.TrustReads":  func(_ *rand.Rand, c *Config) { c.TrustReads = !c.TrustReads },
	"Config.TranslationCacheBytes": func(p *rand.Rand, c *Config) {
		c.TranslationCacheBytes = 64 * uint64(1+p.Intn(1<<14)) // up to 1 MB
	},
	"Config.Outstanding": func(p *rand.Rand, c *Config) { c.Outstanding = 1 + p.Intn(256) },
}

// unreadReaders names, for each field the normalization may zero, a
// scheme that reads it and a value that changes that scheme's Result at
// oracleConfig's scale. The 4 KB translation cache is small enough to miss
// at this scale; the 256 KB default is not.
var unreadReaders = map[string]struct {
	scheme Scheme
	set    func(*Config)
}{
	"Config.STUEntries":            {IFAM, func(c *Config) { c.STUEntries = 128 }},
	"Config.STUWays":               {IFAM, func(c *Config) { c.STUWays = 1 }},
	"Config.PairsPerWay":           {DeACTN, func(c *Config) { c.PairsPerWay = 1 }},
	"Config.STULookup":             {IFAM, func(c *Config) { c.STULookup = sim.NS(20) }},
	"Config.TrustReads":            {DeACTN, func(c *Config) { c.TrustReads = true }},
	"Config.TranslationCacheBytes": {DeACTN, func(c *Config) { c.TranslationCacheBytes = 4 << 10 }},
	"Config.Outstanding":           {DeACTN, func(c *Config) { c.Outstanding = 1 }},
}

// oracleConfig is the irrelevance oracle's small 2-node scale.
func oracleConfig(scheme Scheme, bench string) Config {
	cfg := quickConfig(scheme, bench)
	cfg.Nodes = 2
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4_000, 4_000
	return cfg
}

// zeroedLeaves returns the leaves that normalized() zeroes under scheme s:
// those nonzero in a config where every candidate is set and zero after
// normalization. It reads the code under test, so a field the
// normalization starts zeroing is simulated by the oracle below whether or
// not unreadFields lists it.
func zeroedLeaves(t *testing.T, s Scheme) []leafField {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.PairsPerWay, cfg.TrustReads = 2, true
	before, after := reflect.ValueOf(cfg), reflect.ValueOf(cfg.normalized())
	var leaves, zeroed []leafField
	collectLeaves(t, reflect.TypeOf(cfg), "Config", nil, &leaves)
	for _, lf := range leaves {
		if !before.FieldByIndex(lf.index).IsZero() && after.FieldByIndex(lf.index).IsZero() {
			zeroed = append(zeroed, lf)
		}
	}
	return zeroed
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("perturbation left the config invalid: %v", err)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestUnreadFieldsLeaveResultUnchanged is the randomized irrelevance
// oracle behind run identity: for every (scheme, field) pair that
// normalized() zeroes, seeded random valid values of the field — one at a
// time, then all at once — must simulate a Result deeply equal to the
// unperturbed run's, and keep its fingerprint. A field that a scheme
// starts reading fails here instead of silently sharing a stored result
// with a run it differs from.
func TestUnreadFieldsLeaveResultUnchanged(t *testing.T) {
	prng := rand.New(rand.NewSource(20261018))
	benches := []string{"mcf", "canl", "dc", "sp"}
	const trials = 3
	for _, s := range Schemes() {
		zeroed := zeroedLeaves(t, s)
		if len(zeroed) == 0 {
			continue
		}
		base := oracleConfig(s, benches[prng.Intn(len(benches))])
		base.Seed = prng.Int63n(1 << 30)
		t.Run(s.String(), func(t *testing.T) {
			want := mustRun(t, base)
			all := base
			for _, lf := range zeroed {
				draw, ok := unreadPerturbations[lf.path]
				if !ok {
					t.Errorf("normalized zeroes %s under %v but the oracle cannot perturb it", lf.path, s)
					continue
				}
				draw(prng, &all)
				for i := 0; i < trials; i++ {
					cfg := base
					draw(prng, &cfg)
					if cfg.Fingerprint() != base.Fingerprint() {
						t.Fatalf("%s splits %v's fingerprint though normalized zeroes it", lf.path, s)
					}
					if got := mustRun(t, cfg); !reflect.DeepEqual(want, got) {
						t.Errorf("%v reads %s (zeroed by normalized): %s=%v changed the Result",
							s, lf.path, lf.path, reflect.ValueOf(cfg).FieldByIndex(lf.index))
					}
				}
			}
			if got := mustRun(t, all); !reflect.DeepEqual(want, got) {
				t.Errorf("%v: perturbing every zeroed field at once changed the Result", s)
			}
		})
	}
}

// TestUnreadFieldsAreRead is the oracle's counterpart: every field the
// normalization zeroes under some scheme changes the Result of a scheme
// that reads it at the oracle's scale — otherwise the DeepEqual above
// would hold for a field no scheme reads at all, and prove nothing.
func TestUnreadFieldsAreRead(t *testing.T) {
	checked := map[string]bool{}
	for _, s := range Schemes() {
		for _, lf := range zeroedLeaves(t, s) {
			if checked[lf.path] {
				continue
			}
			checked[lf.path] = true
			rd, ok := unreadReaders[lf.path]
			if !ok {
				t.Errorf("%s is zeroed under %v but no scheme is shown to read it", lf.path, s)
				continue
			}
			t.Run(lf.path, func(t *testing.T) {
				for _, z := range zeroedLeaves(t, rd.scheme) {
					if z.path == lf.path {
						t.Fatalf("the reader scheme %v zeroes %s itself", rd.scheme, lf.path)
					}
				}
				base := oracleConfig(rd.scheme, "mcf")
				cfg := base
				rd.set(&cfg)
				if reflect.DeepEqual(mustRun(t, base), mustRun(t, cfg)) {
					t.Errorf("%s does not change %v's Result at the oracle's scale", lf.path, rd.scheme)
				}
			})
		}
	}
	if len(checked) == 0 {
		t.Fatal("normalized zeroes no field under any scheme")
	}
}
