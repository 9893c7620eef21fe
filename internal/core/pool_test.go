package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// poolTestConfig is a small-but-real run: big enough to materialize ACM
// chunks, grow page tables and evict through all three cache levels.
func poolTestConfig(scheme Scheme, bench string) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = bench
	cfg.CoresPerNode = 1
	cfg.WarmupInstructions = 2000
	cfg.MeasureInstructions = 4000
	return cfg
}

// TestPooledRunMatchesUnpooled is the arena determinism gate: a run built
// from recycled memory must be bit-identical to a fresh one, for every
// scheme (each exercises a different subset of pooled structures) and for
// a 2-node system (two STUs and translators, a larger broker free-pool
// map), both on the pool's first use and after the pool has been dirtied
// by runs of *other* configurations — STU caches larger and smaller than
// the default, so recycled TLB arrays are reused across geometries.
func TestPooledRunMatchesUnpooled(t *testing.T) {
	ctx := context.Background()
	pool := NewSystemPool()
	var cfgs []Config
	for _, scheme := range Schemes() {
		cfgs = append(cfgs, poolTestConfig(scheme, "mcf"))
	}
	twoNode := poolTestConfig(DeACTN, "mcf")
	twoNode.Nodes = 2
	cfgs = append(cfgs, twoNode)
	for _, cfg := range cfgs {
		name := fmt.Sprintf("%v/%d-node", cfg.Scheme, cfg.Nodes)
		want, err := Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s unpooled: %v", name, err)
		}
		// Round 0 reuses whatever the previous configuration left; each
		// later round first dirties the pool with a different benchmark
		// and STU geometry, so reuse crosses run shapes.
		for round, dirtySTU := range []int{0, 4096, 256} {
			if dirtySTU != 0 {
				other := cfg
				other.Benchmark = "sp"
				other.STUEntries = dirtySTU
				if _, err := Run(ctx, other, WithPool(pool)); err != nil {
					t.Fatalf("%s dirtying run (STU %d): %v", name, dirtySTU, err)
				}
			}
			got, err := Run(ctx, cfg, WithPool(pool))
			if err != nil {
				t.Fatalf("%s pooled round %d: %v", name, round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pooled round %d diverged from unpooled:\n got %+v\nwant %+v", name, round, got, want)
			}
		}
	}
}

// TestNilPoolIsValid pins the documented "pooling off" mode.
func TestNilPoolIsValid(t *testing.T) {
	ctx := context.Background()
	cfg := poolTestConfig(IFAM, "mcf")
	if _, err := Run(ctx, cfg, WithPool(nil)); err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg, WithPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	s.Recycle(nil) // no-op, must not panic
}

// TestOptionsFormIsTheOnlyAPI is the compile-time guard left behind by the
// removal of the deprecated RunPooled/NewSystemPooled wrappers: the options
// form covers both the run and construct paths, a nil pool means "allocate
// fresh", and pooled runs are bit-identical to plain ones.
func TestOptionsFormIsTheOnlyAPI(t *testing.T) {
	ctx := context.Background()
	cfg := poolTestConfig(DeACTN, "mcf")
	want, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ctx, cfg, WithPool(NewSystemPool()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Run(WithPool) diverged from Run")
	}
	if _, err := NewSystem(cfg, WithPool(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestPooledRunAllocations holds the pooled construction floor: after one
// warm-up run on a pool, a second pooled Run of the same config allocates
// only its Result — the three per-node stats slices and the one slice
// every node's tenant latency sets are carved from. Calendars, random
// sources, generators, the engine and every per-structure header come
// back from the pool, components reach each other through interfaces
// rather than method values, and names are formatted once, so the count
// grows neither with the run's length nor with its nodes and cores;
// losing any of them costs at least one allocation per run. The floor
// sits a little above the measured 4 (an occasional 5 as a calendar's
// gap array or a map outgrows its recycled capacity); a -race runtime
// allocates on its own behalf, so there it only has to hold within half
// again.
func TestPooledRunAllocations(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		nodes, cores int
		floor        float64
	}{
		{1, 1, 5},
		{2, 2, 5},
	} {
		floor := tc.floor
		if raceEnabled {
			floor *= 1.5
		}
		for _, scheme := range []Scheme{IFAM, DeACTN} {
			for _, model := range []string{CoreInOrder, CoreOoO} {
				cfg := poolTestConfig(scheme, "mcf")
				cfg.Nodes, cfg.CoresPerNode = tc.nodes, tc.cores
				if model == CoreOoO {
					cfg.CoreModel, cfg.WindowSize, cfg.SchedulerLatency = CoreOoO, 32, 2
				}
				name := fmt.Sprintf("%v/%s/%dx%d", scheme, model, tc.nodes, tc.cores)
				pool := NewSystemPool()
				// AllocsPerRun makes the warm-up run, then counts the second.
				got := testing.AllocsPerRun(1, func() {
					if _, err := Run(ctx, cfg, WithPool(pool)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				})
				if got > floor {
					t.Errorf("%s: a warm pooled run allocated %.0f times, floor %.0f", name, got, floor)
				}
			}
		}
	}
}
