package resultstore

import (
	"encoding/json"
	"os"
	"testing"

	"deact/internal/core"
	"deact/internal/node"
)

// FuzzLookup feeds arbitrary bytes to the store as an on-disk entry file
// and pins the reclamation contract: Lookup never panics, never errors,
// and any entry it cannot fully validate — truncated write survivors,
// bit-flipped JSON, foreign or re-addressed envelopes — is a miss whose
// file is deleted so it stops charging the byte budget.
func FuzzLookup(f *testing.F) {
	cfg := core.DefaultConfig()
	cfg.WarmupInstructions = 100
	cfg.MeasureInstructions = 100
	fp := cfg.Fingerprint()

	// Seed with the two interesting regions: a fully valid entry (must
	// hit) and progressively damaged variants of it (must miss + reclaim).
	dir := f.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Put(cfg, core.Result{Instructions: 100}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(st.path(fp))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"Model":"bogus"}`))
	// A well-bound envelope whose node holds two tenant sets for a
	// single-tenant config: a result no run produces.
	twoSets, err := json.Marshal(Entry{Model: core.ModelVersion, Fingerprint: fp, Config: cfg,
		Result: core.Result{Instructions: 100, NodeStats: []node.Stats{{Tenants: make([]node.TenantLatency, 2)}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(twoSets)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := s.Lookup(fp)
		if ok {
			// A hit must be a bit-exact, correctly addressed envelope.
			if e.Fingerprint != fp || e.Config.Fingerprint() != fp {
				t.Fatalf("hit with broken binding: %+v", e)
			}
			if !tenantShaped(e) {
				t.Fatalf("hit with misshaped tenant sets: %+v", e.Result.NodeStats)
			}
			var want Entry
			if json.Unmarshal(data, &want) != nil {
				t.Fatal("hit on undecodable bytes")
			}
			return
		}
		// A miss on decodable-but-invalid bytes must reclaim the file;
		// a miss on valid JSON that simply fails binding likewise. Only
		// unreadable files (impossible here — we just wrote it) may
		// survive a miss.
		if _, err := os.Stat(s.path(fp)); !os.IsNotExist(err) {
			t.Fatalf("missed entry not reclaimed (stat err: %v)", err)
		}
	})
}
