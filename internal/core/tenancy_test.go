package core

import (
	"context"
	"reflect"
	"testing"

	"deact/internal/node"
)

// tenancyConfig is a small multi-node run with the noisy-neighbor mix on:
// tenant 0 thrashes with canl while tenant 1 serves steady sp traffic.
func tenancyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = DeACTN
	cfg.Benchmark = "sp"
	cfg.Nodes = 2
	cfg.CoresPerNode = 1
	cfg.Tenants = 2
	cfg.NoisyBenchmark = "canl"
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 6_000
	return cfg
}

// TestTenantTrafficRecordedPerTenant: with two tenants both must populate
// their histograms, unassigned tenant slots must stay empty, and the
// steady-tenant aggregation must exclude the noisy tenant.
func TestTenantTrafficRecordedPerTenant(t *testing.T) {
	res, err := Run(context.Background(), tenancyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 2; tid++ {
		lat := res.TenantLatency(tid)
		if lat.Translation.Count() == 0 {
			t.Errorf("tenant %d recorded no translation samples", tid)
		}
		if lat.Local.Count()+lat.FAM.Count() == 0 {
			t.Errorf("tenant %d recorded no access samples", tid)
		}
		if lat.FAM.Count() > 0 && lat.FAM.P99() < lat.FAM.P50() {
			t.Errorf("tenant %d FAM p99 %.0f below p50 %.0f", tid, lat.FAM.P99(), lat.FAM.P50())
		}
	}
	for tid := 2; tid < node.MaxTenants; tid++ {
		if lat := res.TenantLatency(tid); lat.Translation.Count() != 0 || lat.Local.Count() != 0 || lat.FAM.Count() != 0 {
			t.Errorf("unassigned tenant %d recorded samples", tid)
		}
	}
	steady := res.SteadyLatency(2)
	if got, want := steady, res.TenantLatency(1); !reflect.DeepEqual(got, want) {
		t.Error("SteadyLatency(2) differs from tenant 1's distributions")
	}
	if oob := res.TenantLatency(node.MaxTenants + 3); oob.Translation.Count() != 0 {
		t.Error("out-of-range tenant index returned samples")
	}
}

// TestSingleTenantRecordsUnderTenantZero: a legacy config (Tenants unset)
// attributes every memory reference to tenant 0 — one translation sample
// and one access sample per retired memory op.
func TestSingleTenantRecordsUnderTenantZero(t *testing.T) {
	cfg := quickConfig(IFAM, "mcf")
	cfg.WarmupInstructions, cfg.MeasureInstructions = 2_000, 4_000
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := res.TenantLatency(0)
	if lat.Translation.Count() != res.MemOps {
		t.Errorf("translation samples %d != measured mem ops %d", lat.Translation.Count(), res.MemOps)
	}
	if got := lat.Local.Count() + lat.FAM.Count(); got != res.MemOps {
		t.Errorf("access samples %d != measured mem ops %d", got, res.MemOps)
	}
	for tid := 1; tid < node.MaxTenants; tid++ {
		if other := res.TenantLatency(tid); other.Translation.Count() != 0 {
			t.Fatalf("tenant %d has samples in a single-tenant run", tid)
		}
	}
}

// TestTenancyIsObservationOnly is the determinism invariant behind the
// golden report: tagging traffic with tenants (same benchmark everywhere,
// no noisy neighbor) must not change a single simulated cycle or counter —
// only the attribution of latency samples across tenant slots. Merging the
// per-tenant histograms back together must reproduce the single-tenant
// distribution exactly.
func TestTenancyIsObservationOnly(t *testing.T) {
	base := DefaultConfig()
	base.Scheme = IFAM
	base.Benchmark = "mcf"
	base.Nodes = 2
	base.CoresPerNode = 2
	base.WarmupInstructions, base.MeasureInstructions = 2_000, 4_000

	tagged := base
	tagged.Tenants = 4

	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(context.Background(), tagged)
	if err != nil {
		t.Fatal(err)
	}

	// Everything except the per-tenant split must be identical.
	scrub := func(r Result) Result {
		for i := range r.NodeStats {
			r.NodeStats[i].Tenants = nil
		}
		return r
	}
	if !reflect.DeepEqual(scrub(plain), scrub(multi)) {
		t.Fatal("tenant tagging perturbed the simulation (counters/timing differ)")
	}

	// And the split must partition the single-tenant distribution.
	var merged node.TenantLatency
	for tid := 0; tid < 4; tid++ {
		merged.Merge(multi.TenantLatency(tid))
	}
	if !reflect.DeepEqual(merged, plain.TenantLatency(0)) {
		t.Fatal("per-tenant histograms do not merge back to the single-tenant distribution")
	}
}

// TestTenantAssignmentRoundRobin pins the documented core→tenant mapping:
// node-major global core index modulo Tenants.
func TestTenantAssignmentRoundRobin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.CoresPerNode = 3
	cfg.Tenants = 4
	want := [][]uint8{{0, 1, 2}, {3, 0, 1}}
	for ni, row := range want {
		for ci, tid := range row {
			if got := cfg.tenantFor(ni, ci); got != tid {
				t.Errorf("tenantFor(%d, %d) = %d, want %d", ni, ci, got, tid)
			}
		}
	}
	cfg.Tenants = 0
	if cfg.tenantFor(1, 2) != 0 {
		t.Error("single-tenant config assigned a nonzero tenant")
	}
}
