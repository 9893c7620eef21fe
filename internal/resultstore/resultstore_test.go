package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"deact/internal/core"
	"deact/internal/node"
)

// storeTestConfig is a small-but-real run; tenants=2 populates the
// per-tenant histograms so round-trips cover them.
func storeTestConfig(scheme core.Scheme, bench string, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = bench
	cfg.CoresPerNode = 2
	cfg.Tenants = 2
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 2_000
	cfg.Seed = seed
	return cfg
}

func mustRun(t testing.TB, cfg core.Config) core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreHitEqualsMiss is the byte-identity gate: a warm Get — even
// through a fresh Store handle, as a new process would hold — must return
// a Result deeply equal to the simulated one with an identical canonical
// encoding, histograms included.
func TestStoreHitEqualsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig(core.DeACTN, "mcf", 42)
	want := mustRun(t, cfg)
	if _, ok := st.Get(cfg); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Put(cfg, want); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, 0) // fresh handle: nothing cached in memory
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(cfg)
	if !ok {
		t.Fatal("persisted entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stored result is not the simulated result:\n got %+v\nwant %+v", got, want)
	}
	ge, _ := json.Marshal(got)
	we, _ := json.Marshal(want)
	if !bytes.Equal(ge, we) {
		t.Fatal("hit and miss encodings differ byte-wise")
	}
	if e, ok := st2.Lookup(cfg.Fingerprint()); !ok || e.Config.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("Lookup did not return the envelope")
	}
}

// TestStoreModelHashInvalidation: a model-version bump must turn every
// stored result into a miss and reclaim the stale files.
func TestStoreModelHashInvalidation(t *testing.T) {
	dir := t.TempDir()
	cfg := storeTestConfig(core.IFAM, "sp", 42)
	res := mustRun(t, cfg)

	stA, err := openModel(dir, "model-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.Put(cfg, res); err != nil {
		t.Fatal(err)
	}

	stB, err := openModel(dir, "model-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stB.Get(cfg); ok {
		t.Fatal("result computed under model-a served under model-b")
	}
	dirs, _ := filepath.Glob(filepath.Join(dir, "v-*"))
	if len(dirs) != 1 {
		t.Fatalf("stale model directory not reclaimed: %v", dirs)
	}
	// Reverting the model does not resurrect the invalidated entries.
	stA2, err := openModel(dir, "model-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stA2.Get(cfg); ok {
		t.Fatal("invalidated entry resurrected")
	}
}

// TestStoreCorruptedEntryIsAMiss: garbage on disk — truncated writes from
// a killed process, bit rot, foreign files — must read as cache misses
// (and be reclaimed), never as errors or wrong results.
func TestStoreCorruptedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig(core.DeACTW, "canl", 42)
	res := mustRun(t, cfg)
	fp := cfg.Fingerprint()
	other := storeTestConfig(core.EFAM, "dc", 7)

	for name, corrupt := range map[string][]byte{
		"garbage":   []byte("not json at all"),
		"truncated": {'{', '"', 'M', 'o'},
		"empty":     {},
		"wrong-entry": func() []byte {
			// A valid entry filed under the wrong address must not serve.
			b, _ := json.Marshal(Entry{Model: core.ModelVersion,
				Fingerprint: other.Fingerprint(), Config: other, Result: res})
			return b
		}(),
	} {
		if err := st.Put(cfg, res); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(fp), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(cfg); ok {
			t.Fatalf("%s: corrupted entry served", name)
		}
		if _, statErr := os.Stat(st.path(fp)); !os.IsNotExist(statErr) {
			t.Fatalf("%s: corrupted entry not reclaimed", name)
		}
		// The miss is recoverable: re-persisting restores the hit.
		if err := st.Put(cfg, res); err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(cfg); !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("%s: recovery Put did not restore the entry", name)
		}
	}
}

// TestStoreEvictionOrder: over budget, the least recently *used* entry
// goes first — a Get refreshes recency, so the touched oldest entry
// survives a newer untouched one.
func TestStoreEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	cfgA := storeTestConfig(core.DeACTN, "mcf", 1)
	cfgB := storeTestConfig(core.DeACTN, "mcf", 2)
	cfgC := storeTestConfig(core.DeACTN, "mcf", 3)
	resA, resB, resC := mustRun(t, cfgA), mustRun(t, cfgB), mustRun(t, cfgC)

	size := func(cfg core.Config, res core.Result) int64 {
		b, err := json.Marshal(Entry{Model: core.ModelVersion,
			Fingerprint: cfg.Fingerprint(), Config: cfg, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}
	// Room for any two entries, never all three.
	budget := size(cfgA, resA) + size(cfgB, resB) + size(cfgC, resC) - 1

	st, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(cfgA, resA); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(cfgB, resB); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(cfgA); !ok { // touch A: B becomes the LRU entry
		t.Fatal("A missing before eviction")
	}
	if err := st.Put(cfgC, resC); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(cfgB); ok {
		t.Fatal("LRU entry B survived eviction")
	}
	if _, ok := st.Get(cfgA); !ok {
		t.Fatal("recently used entry A was evicted")
	}
	if _, ok := st.Get(cfgC); !ok {
		t.Fatal("just-written entry C was evicted")
	}
	if n := st.Len(); n != 2 {
		t.Fatalf("Len() = %d after eviction, want 2", n)
	}
	if st.Bytes() > budget {
		t.Fatalf("footprint %d still over budget %d", st.Bytes(), budget)
	}
}

// TestStoreConcurrentWriters exercises the mutex seams under the race
// detector: concurrent Put/Get/Lookup on overlapping fingerprints with a
// budget small enough to force eviction during the storm.
func TestStoreConcurrentWriters(t *testing.T) {
	cfgs := []core.Config{
		storeTestConfig(core.DeACTN, "mcf", 1),
		storeTestConfig(core.IFAM, "mcf", 1),
		storeTestConfig(core.DeACTN, "mcf", 2),
	}
	results := make([]core.Result, len(cfgs))
	for i, cfg := range cfgs {
		results[i] = mustRun(t, cfg)
	}
	one, err := json.Marshal(Entry{Model: core.ModelVersion,
		Fingerprint: cfgs[0].Fingerprint(), Config: cfgs[0], Result: results[0]})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), int64(len(one))*2+16) // ~2 entries: eviction churns
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(cfgs)
				if (g+i)%2 == 0 {
					if err := st.Put(cfgs[k], results[k]); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := st.Get(cfgs[k]); ok {
					if !reflect.DeepEqual(got, results[k]) {
						t.Error("concurrent Get returned a wrong result")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreRejectsBadFingerprints: Lookup input is external (the HTTP
// API); path traversal or malformed addresses must be plain misses.
func TestStoreRejectsBadFingerprints(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "..", "../../etc/passwd", "ABCDEF00112233445566778899aabbcc",
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", "0123"} {
		if _, ok := st.Lookup(fp); ok {
			t.Errorf("bad fingerprint %q produced a hit", fp)
		}
	}
}

// BenchmarkStoreHit guards the warm-serving fast path: one Get of a
// persisted entry (read, decode, fingerprint check). It rides the CI
// bench-smoke tier, so a pathological slowdown in the hit path is visible
// in every bench artifact.
func BenchmarkStoreHit(b *testing.B) {
	cfg := storeTestConfig(core.DeACTN, "mcf", 42)
	res := mustRun(b, cfg)
	st, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(cfg, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(cfg); !ok {
			b.Fatal("hit path missed")
		}
	}
}

// TestStorePutAsEqualsPut: PutAs with the config's own fingerprint files
// the same bytes Put does; under any other address the entry fails
// Lookup's binding check and is dropped.
func TestStorePutAsEqualsPut(t *testing.T) {
	cfg := storeTestConfig(core.IFAM, "mcf", 7)
	res := mustRun(t, cfg)
	fp := cfg.Fingerprint()
	a, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(cfg, res); err != nil {
		t.Fatal(err)
	}
	if err := b.PutAs(fp, cfg, res); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("PutAs wrote different bytes than Put")
	}
	other := storeTestConfig(core.IFAM, "mcf", 8).Fingerprint()
	if err := b.PutAs(other, cfg, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(other); ok {
		t.Fatal("an entry filed under a foreign fingerprint was served")
	}
	if b.Len() != 1 {
		t.Fatalf("store indexes %d entries, want the one valid entry", b.Len())
	}
}

// TestStoreDropsMisshapedTenantSets: an entry whose nodes hold other than
// their config's number of tenant latency sets, or more than
// node.MaxTenants, is a result no run produces. It is a miss, and its
// file is reclaimed.
func TestStoreDropsMisshapedTenantSets(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig(core.DeACTN, "mcf", 42) // two tenants
	res := mustRun(t, cfg)
	oversized := cfg
	oversized.Tenants = node.MaxTenants + 1
	for _, tc := range []struct {
		name string
		cfg  core.Config
		sets []int // per node
	}{
		{"too-few", cfg, []int{1}},
		{"too-many", cfg, []int{3}},
		{"none", cfg, []int{0}},
		{"one-node-off", cfg, []int{2, 1}},
		{"over-max", oversized, []int{node.MaxTenants + 1}},
	} {
		r := res
		r.NodeStats = nil
		for _, n := range tc.sets {
			r.NodeStats = append(r.NodeStats, node.Stats{Tenants: make([]node.TenantLatency, n)})
		}
		fp := tc.cfg.Fingerprint()
		body, err := json.Marshal(Entry{Model: core.ModelVersion, Fingerprint: fp, Config: tc.cfg, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(fp), body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Lookup(fp); ok {
			t.Errorf("%s: misshaped entry served", tc.name)
		}
		if _, statErr := os.Stat(st.path(fp)); !os.IsNotExist(statErr) {
			t.Errorf("%s: misshaped entry not reclaimed", tc.name)
		}
	}
}

// TestStoredEntryEqualsFreshRuns: a stored entry, read back through a
// fresh handle, decodes deeply equal to a fresh unpooled run and to a
// warm pooled run of its config, at one and at four tenants, whose nodes
// hold one and four latency sets.
func TestStoredEntryEqualsFreshRuns(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenants := range []int{1, 4} {
		cfg := storeTestConfig(core.IFAM, "canl", 3)
		cfg.Nodes = 2
		cfg.Tenants = tenants
		unpooled := mustRun(t, cfg)
		pool := core.NewSystemPool()
		var pooled core.Result
		for i := 0; i < 2; i++ { // the second run is built from recycled memory
			if pooled, err = core.Run(context.Background(), cfg, core.WithPool(pool)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(cfg, unpooled); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := fresh.Get(cfg)
		if !ok {
			t.Fatalf("tenants %d: stored entry missed", tenants)
		}
		for i, ns := range got.NodeStats {
			if len(ns.Tenants) != tenants {
				t.Fatalf("tenants %d: node %d holds %d latency sets", tenants, i, len(ns.Tenants))
			}
		}
		if !reflect.DeepEqual(got, unpooled) {
			t.Errorf("tenants %d: stored entry differs from the unpooled run", tenants)
		}
		if !reflect.DeepEqual(got, pooled) {
			t.Errorf("tenants %d: stored entry differs from the pooled run", tenants)
		}
	}
}
