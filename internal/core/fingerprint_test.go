package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// writeCanonical is the reference encoder Fingerprint's plan-driven one
// must match byte for byte: a reflection walk that formats every exported
// leaf field with fmt, tagged with its full path.
func writeCanonical(w io.Writer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("core: Fingerprint: unexported field %s.%s cannot carry run identity", path, f.Name))
			}
			writeCanonical(w, path+"."+f.Name, v.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d;", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%s=%d;", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t;", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%s=%q;", path, v.String())
	default:
		panic(fmt.Sprintf("core: Fingerprint: unsupported field kind %s at %s", v.Kind(), path))
	}
}

// referenceFingerprint is Fingerprint computed through writeCanonical.
func referenceFingerprint(c Config) string {
	h := sha256.New()
	writeCanonical(h, "Config", reflect.ValueOf(c.normalized()))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// randomize sets the leaf field lf of cfg to a random value of its kind:
// integers across their whole range, strings with quotes, escapes,
// non-ASCII and invalid UTF-8.
func randomize(rng *rand.Rand, cfg *Config, lf leafField) {
	v := reflect.ValueOf(cfg).Elem().FieldByIndex(lf.index)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			x = -x - int64(rng.Intn(2))
		}
		v.SetInt(x) // truncates to the field's width
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.String:
		pieces := []string{"", "mcf", `"`, `\`, "\n", "\x00", "é", "\xff", "ok", " ", "\u2028", "`"}
		var b []byte
		for n := rng.Intn(4); n > 0; n-- {
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
		if rng.Intn(8) == 0 {
			b = append(b, 0xff, 0xfe) // invalid UTF-8
		}
		v.SetString(string(b))
	}
}

// TestFingerprintMatchesReferenceEncoder is the oracle for the plan-driven
// encoder: over random configs, each drawn by setting every leaf field of
// Config to a random value, the canonical bytes and the digest must equal
// those of the fmt-based reference walk.
func TestFingerprintMatchesReferenceEncoder(t *testing.T) {
	var leaves []leafField
	collectLeaves(t, reflect.TypeOf(Config{}), "Config", nil, &leaves)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		cfg := DefaultConfig()
		for _, lf := range leaves {
			if rng.Intn(3) == 0 {
				randomize(rng, &cfg, lf)
			}
		}
		if i%4 == 0 {
			cfg.Scheme = Schemes()[rng.Intn(4)] // exercise every normalization
		}
		n := cfg.normalized()
		var ref bytes.Buffer
		writeCanonical(&ref, "Config", reflect.ValueOf(n))
		if got := appendCanonical(nil, &n); !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("config %d: canonical encoding differs from the reference:\n got %q\nwant %q", i, got, ref.Bytes())
		}
		if got, want := cfg.Fingerprint(), referenceFingerprint(cfg); got != want {
			t.Fatalf("config %d: Fingerprint %s, reference %s", i, got, want)
		}
	}
}

// BenchmarkFingerprint measures one Fingerprint of the default config: the
// Runner and the result store compute one per submitted run. Beside the
// returned string it should allocate nothing.
func BenchmarkFingerprint(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.Fingerprint()
	}
}

// leafField identifies one exported leaf field of Config by its
// FieldByIndex chain.
type leafField struct {
	path  string
	index []int
}

// collectLeaves enumerates every exported leaf field of a struct type,
// recursing into nested structs, so the perturbation tests below cover new
// Config fields automatically.
func collectLeaves(t *testing.T, typ reflect.Type, prefix string, index []int, out *[]leafField) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Fatalf("unexported field %s.%s in Config: Fingerprint cannot cover it", prefix, f.Name)
		}
		idx := append(append([]int{}, index...), i)
		path := prefix + "." + f.Name
		if f.Type.Kind() == reflect.Struct {
			collectLeaves(t, f.Type, path, idx, out)
			continue
		}
		*out = append(*out, leafField{path: path, index: idx})
	}
}

// perturb returns a copy of cfg with the given leaf field changed to a
// different valid-kind value.
func perturb(t *testing.T, cfg Config, lf leafField) Config {
	t.Helper()
	v := reflect.ValueOf(&cfg).Elem().FieldByIndex(lf.index)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("field %s has kind %s: teach perturb (and Fingerprint) about it", lf.path, v.Kind())
	}
	return cfg
}

// TestFingerprintPinned pins two fingerprints to fixed hex values.
// Fingerprints key every resultstore entry, so a refactor of the canonical
// encoding that changed them would silently turn every stored result into
// a miss. An intentional change updates these values together with a
// ModelVersion bump.
func TestFingerprintPinned(t *testing.T) {
	custom := DefaultConfig()
	custom.Scheme = DeACTN
	custom.Benchmark = "canl"
	custom.Seed = 7
	custom.Nodes = 2
	custom.CoresPerNode = 1
	custom.MeasureInstructions = 12_345
	custom.CoreModel = CoreOoO
	custom.WindowSize = 16
	custom.Tenants = 2
	custom.Pattern = "stencil"
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "c360ec467129ec130cb657d2553a6984"},
		{"custom", custom, "83163d2760773a4695388f954efb2187"},
	} {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.cfg.Fingerprint(); got != c.want {
			t.Errorf("%s config fingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFingerprintEqualConfigsHashEqual(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	// The fingerprint must be a pure function of the value, not of call
	// history.
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

// unreadFields is, per scheme, the set of Config fields that scheme's code
// path never reads, written out by hand from node.NewInArena and the stu
// package: E-FAM builds neither an STU nor a translator, I-FAM builds no
// translator and never calls stu.verify (TrustReads) or packs DeACT-N
// sub-ways (PairsPerWay), and DeACT-W does not pack sub-ways either. The
// normalization must zero exactly these, and TestUnreadFieldsLeaveResultUnchanged
// checks by simulation that each of them is in fact never read.
var unreadFields = map[Scheme][]string{
	EFAM: {"Config.STUEntries", "Config.STUWays", "Config.PairsPerWay", "Config.STULookup",
		"Config.TranslationCacheBytes", "Config.Outstanding", "Config.TrustReads"},
	IFAM:   {"Config.PairsPerWay", "Config.TranslationCacheBytes", "Config.Outstanding", "Config.TrustReads"},
	DeACTW: {"Config.PairsPerWay"},
	DeACTN: nil,
}

// TestFingerprintCoversEveryField perturbs every exported leaf field of
// Config under each scheme (reflection-driven, so a newly added field
// cannot be silently omitted) and requires the fingerprint to change —
// except for fields the normalization deliberately derives from others and
// the fields unreadFields lists for that scheme.
func TestFingerprintCoversEveryField(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			// Hierarchy.Cores is overwritten with CoresPerNode before
			// hashing (and before simulating), so perturbing it must NOT
			// change run identity. Tenants normalizes 0 to 1 — both
			// spellings mean "single-tenant" and simulate identically — and
			// this test perturbs it from its default 0 to 1, so the
			// fingerprint must stay put. (Any value ≥ 2 does change
			// identity; see TestFingerprintTenancyFieldsDistinct.)
			normalized := map[string]bool{
				"Config.Hierarchy.Cores": true,
				"Config.Tenants":         true,
			}
			for _, f := range unreadFields[s] {
				normalized[f] = true
			}

			base := DefaultConfig()
			base.Scheme = s
			baseFP := base.Fingerprint()
			var leaves []leafField
			collectLeaves(t, reflect.TypeOf(base), "Config", nil, &leaves)
			if len(leaves) < 30 {
				t.Fatalf("only %d leaf fields found; Config reflection walk broken", len(leaves))
			}
			seen := map[string]string{"": baseFP}
			for _, lf := range leaves {
				got := perturb(t, base, lf).Fingerprint()
				if normalized[lf.path] {
					if got != baseFP {
						t.Errorf("%s is normalized away but changed the fingerprint", lf.path)
					}
					continue
				}
				if got == baseFP {
					t.Errorf("perturbing %s did not change the fingerprint", lf.path)
				}
				// No two single-field perturbations may alias each other either.
				if prev, dup := seen[got]; dup {
					t.Errorf("perturbing %s aliases perturbing %q", lf.path, prev)
				}
				seen[got] = lf.path
			}
		})
	}
}

// TestFingerprintTenancyFieldsDistinct pins the tenancy fields' identity
// semantics: 0 and 1 merge (both mean "feature off"), real values split,
// and the noisy-benchmark choice is part of run identity.
func TestFingerprintTenancyFieldsDistinct(t *testing.T) {
	mk := func(tenants int, noisy string) string {
		c := DefaultConfig()
		c.Tenants, c.NoisyBenchmark = tenants, noisy
		return c.Fingerprint()
	}
	if mk(0, "") != mk(1, "") {
		t.Error("Tenants 0 and 1 split run identity; they simulate identically")
	}
	distinct := []string{mk(0, ""), mk(2, ""), mk(4, ""), mk(2, "canl")}
	fps := map[string]int{}
	for i, fp := range distinct {
		if j, dup := fps[fp]; dup {
			t.Errorf("tenancy variants %d and %d alias", i, j)
		}
		fps[fp] = i
	}
}

// TestFingerprintNoAliasingAcrossSweepPoints pins the dedup property the
// Runner relies on: the configs the paper's sweeps actually submit are
// pairwise distinct unless they are value-identical.
func TestFingerprintNoAliasingAcrossSweepPoints(t *testing.T) {
	mk := func(mutate func(*Config)) Config {
		c := DefaultConfig()
		if mutate != nil {
			mutate(&c)
		}
		return c
	}
	variants := []Config{
		mk(nil),
		mk(func(c *Config) { c.STUEntries = 512 }),
		mk(func(c *Config) { c.STUWays = 4 }),
		mk(func(c *Config) { c.FabricLatency = 100_000 }),
		mk(func(c *Config) { c.Nodes = 8 }),
		mk(func(c *Config) { c.Layout.ACMBits = 8 }),
		mk(func(c *Config) { c.PairsPerWay = 2; c.Layout.ACMBits = 8 }),
		mk(func(c *Config) { c.TrustReads = true }),
		mk(func(c *Config) { c.Seed = 43 }),
		mk(func(c *Config) { c.Benchmark = "dc" }),
	}
	fps := map[string]int{}
	for i, v := range variants {
		fp := v.Fingerprint()
		if j, dup := fps[fp]; dup {
			t.Fatalf("sweep variants %d and %d alias", i, j)
		}
		fps[fp] = i
	}
	// And a sweep point that coincides with the default config must merge
	// with it — that is the whole point of config-derived identity.
	if mk(func(c *Config) { c.STUEntries = 1024 }).Fingerprint() != mk(nil).Fingerprint() {
		t.Fatal("value-identical configs did not merge")
	}
}

func TestValidateSentinelErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nodes", func(c *Config) { c.Nodes = 0 }},
		{"cores", func(c *Config) { c.CoresPerNode = -1 }},
		{"measure", func(c *Config) { c.MeasureInstructions = 0 }},
		{"overflow", func(c *Config) {
			c.WarmupInstructions = math.MaxUint64 - c.MeasureInstructions + 1
		}},
		{"cycle", func(c *Config) { c.CycleTime = 0 }},
		{"issue", func(c *Config) { c.IssueWidth = 0 }},
		{"outstanding", func(c *Config) { c.MaxOutstanding = 0 }},
		{"stu", func(c *Config) { c.STUEntries = 0 }},
		{"bench", func(c *Config) { c.Benchmark = "nope" }},
		{"layout", func(c *Config) { c.Layout.ACMBits = 9 }},
		{"tenants-range", func(c *Config) { c.Tenants = 9 }},
		{"tenants-exceed-cores", func(c *Config) { c.Nodes, c.CoresPerNode, c.Tenants = 1, 4, 5 }},
		{"noisy-without-tenants", func(c *Config) { c.NoisyBenchmark = "canl" }},
		{"noisy-unknown", func(c *Config) { c.Tenants, c.NoisyBenchmark = 2, "nope" }},
		{"prefetch-streams-overflow", func(c *Config) { c.PrefetchStreams = 1<<62 + 1 }},
		{"prefetch-threshold-too-large", func(c *Config) { c.PrefetchStreams, c.PrefetchThreshold = 64, 1<<31 }},
		{"core-model-unknown", func(c *Config) { c.CoreModel = "speculative" }},
		{"ooo-without-window", func(c *Config) { c.CoreModel = CoreOoO }},
		{"ooo-negative-latency", func(c *Config) {
			c.CoreModel, c.WindowSize, c.SchedulerLatency = CoreOoO, 8, -1
		}},
		{"window-without-ooo", func(c *Config) { c.WindowSize = 8 }},
		{"latency-without-ooo", func(c *Config) { c.SchedulerLatency = 2 }},
		{"nodes-exceed-acm-ids", func(c *Config) { c.Nodes, c.Layout.ACMBits = 63, 8 }},
		{"fam-port-over-packet", func(c *Config) { c.FAMCfg.PortLatency = c.FabricPacketTime + 1 }},
		{"zero-packet-time", func(c *Config) { c.FabricPacketTime = 0 }},
		{"fam-no-banks", func(c *Config) { c.FAMCfg.Banks = 0 }},
		{"dram-zero-latency", func(c *Config) { c.DRAMCfg.ReadLatency = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	widest := DefaultConfig()
	widest.Nodes, widest.Layout.ACMBits = 62, 8 // the largest 8-bit ACM deployment
	if err := widest.Validate(); err != nil {
		t.Fatalf("62 nodes at 8-bit ACM rejected: %v", err)
	}
	paced := DefaultConfig()
	paced.FAMCfg.PortLatency = paced.FabricPacketTime // the slowest port the link paces
	if err := paced.Validate(); err != nil {
		t.Fatalf("FAM port latency equal to the packet time rejected: %v", err)
	}
}

// TestStaleHierarchyCoresIsIgnored is the regression test for the old dead
// store in Validate: a Config carrying a stale Hierarchy.Cores must build
// the hierarchy for CoresPerNode anyway, produce the same result as a zero
// Cores field, and fingerprint identically.
func TestStaleHierarchyCoresIsIgnored(t *testing.T) {
	clean := quickConfig(DeACTN, "mcf")
	clean.WarmupInstructions, clean.MeasureInstructions = 5_000, 5_000

	stale := clean
	stale.Hierarchy.Cores = 7 // wrong on purpose; CoresPerNode is 2

	if clean.Fingerprint() != stale.Fingerprint() {
		t.Fatal("stale Hierarchy.Cores split run identity")
	}
	a, err := Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), stale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("stale Hierarchy.Cores changed the simulation")
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, quickConfig(DeACTN, "mcf"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunCancelledMidSimulation: cancelling while the event loop drains
// must abort at the next stride, well before the full run would finish.
func TestRunCancelledMidSimulation(t *testing.T) {
	cfg := quickConfig(DeACTN, "canl")
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 5_000_000 // many seconds uncancelled

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; stride checks not reached", elapsed)
	}
}

// TestRunDeterministicUnderStrideSlicing guards the byte-identity claim:
// the stride-sliced event loop must produce exactly the result the
// pre-context engine drain did, which TestRunDeterministicFixedSeed alone
// cannot see (it compares the sliced loop only with itself). The fixture
// values were captured from the unsliced Run at the commit before the
// context migration; if slicing ever perturbs event order or the final
// engine clock, this fails loudly.
func TestRunDeterministicUnderStrideSlicing(t *testing.T) {
	cfg := quickConfig(IFAM, "mcf")
	cfg.WarmupInstructions, cfg.MeasureInstructions = 2_000, 2_000
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("Duration=%d Instructions=%d MemOps=%d FAMAT=%d FAMData=%d IPC=%.17g",
		r.Duration, r.Instructions, r.MemOps, r.FAMAT, r.FAMData, r.IPC)
	const want = "Duration=552959500 Instructions=3998 MemOps=1346 FAMAT=984 FAMData=903 IPC=0.0036150929679298394"
	if got != want {
		t.Fatalf("sliced event loop drifted from the unsliced fixture:\ngot  %s\nwant %s", got, want)
	}
}
