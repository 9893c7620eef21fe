package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func smallHierarchy(t *testing.T, cores int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		Cores: cores,
		// Tiny levels so evictions are easy to force.
		L1Size: 4 * 64, L1Ways: 2,
		L2Size: 8 * 64, L2Ways: 2,
		L3Size: 16 * 64, L3Ways: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := smallHierarchy(t, 1)
	if lvl, _ := h.Access(0, 0x1000, false); lvl != Memory {
		t.Fatalf("cold access served at %v", lvl)
	}
	if lvl, _ := h.Access(0, 0x1000, false); lvl != L1 {
		t.Fatalf("warm access served at %v, want L1", lvl)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := smallHierarchy(t, 1)
	h.Access(0, 0x0000, false)
	// Fill L1's set for 0x0000 (L1: 2 sets × 2 ways; same-set stride = 128B)
	// so 0x0000 falls out of L1 but stays in L2.
	h.Access(0, 0x0080, false)
	h.Access(0, 0x0100, false)
	if lvl, _ := h.Access(0, 0x0000, false); lvl != L2 {
		t.Fatalf("expected L2 hit, got %v", lvl)
	}
}

func TestHierarchyPrivateL1PerCore(t *testing.T) {
	h := smallHierarchy(t, 2)
	h.Access(0, 0x4000, false)
	// Core 1 misses its private L1/L2 but hits the shared L3.
	if lvl, _ := h.Access(1, 0x4000, false); lvl != L3 {
		t.Fatalf("core 1 served at %v, want shared L3", lvl)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	h := smallHierarchy(t, 1)
	h.Access(0, 0x0000, true) // dirty in L1 (and resident in L3)
	// Evict 0x0000 from L3: its set (L3: 4 sets × 4 ways, same-set stride =
	// 256B) needs 4 more distinct blocks.
	for i := 1; i <= 4; i++ {
		_, wbs := h.Access(0, uint64(i)*0x100, false)
		for _, wb := range wbs {
			if wb == 0x0000 {
				// Back-invalidation found the dirty L1 copy and wrote it back.
				if h.L1Cache(0).Probe(0x0000) {
					t.Fatal("L1 copy survived back-invalidation")
				}
				return
			}
		}
	}
	t.Fatal("dirty block evicted from L3 without a writeback")
}

func TestWritebackOnlyWhenDirty(t *testing.T) {
	h := smallHierarchy(t, 1)
	var wbCount int
	// Clean streaming should evict plenty of blocks but write back none.
	for i := 0; i < 64; i++ {
		_, wbs := h.Access(0, uint64(i)*64, false)
		wbCount += len(wbs)
	}
	if wbCount != 0 {
		t.Fatalf("clean traffic produced %d writebacks", wbCount)
	}
}

func TestHierarchyMissCounter(t *testing.T) {
	h := smallHierarchy(t, 1)
	for i := 0; i < 10; i++ {
		h.Access(0, uint64(i)*4096, false)
	}
	if h.Misses() != 10 {
		t.Fatalf("misses = %d, want 10", h.Misses())
	}
}

func TestNewHierarchyRejectsBadConfig(t *testing.T) {
	if _, err := NewHierarchy(HierarchyConfig{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := NewHierarchy(HierarchyConfig{Cores: 1, L1Size: 100, L1Ways: 3}); err == nil {
		t.Fatal("bad L1 geometry accepted")
	}
	cfg := HierarchyConfig{Cores: MaxCores + 1, L1Size: 4 * 64, L1Ways: 2, L2Size: 8 * 64, L2Ways: 2, L3Size: 16 * 64, L3Ways: 4}
	if _, err := NewHierarchy(cfg); err == nil {
		t.Fatalf("%d cores accepted; the presence mask holds %d", cfg.Cores, MaxCores)
	}
}

// refHierarchy is the reference the presence-masked Hierarchy is held to:
// the same caches, but an L3 eviction back-invalidates every core's L1 and
// L2.
type refHierarchy struct {
	l1, l2 []*Cache
	l3     *Cache
}

func (r *refHierarchy) access(core int, a uint64, write bool) (HitLevel, []uint64) {
	if hit, _, _ := r.l1[core].Access(a, write); hit {
		return L1, nil
	}
	if hit, _, _ := r.l2[core].Access(a, write); hit {
		return L2, nil
	}
	hit, victim, evicted := r.l3.Access(a, write)
	var wbs []uint64
	if evicted {
		dirty := victim.Dirty
		for i := range r.l1 {
			if _, d := r.l1[i].Invalidate(victim.Addr); d {
				dirty = true
			}
			if _, d := r.l2[i].Invalidate(victim.Addr); d {
				dirty = true
			}
		}
		if dirty {
			wbs = append(wbs, victim.Addr)
		}
	}
	if hit {
		return L3, wbs
	}
	return Memory, wbs
}

// TestPresenceMaskMatchesFullBackInvalidation drives random multi-core
// traffic — private and shared blocks, reads and writes, tiny levels so
// the L3 evicts constantly — through the Hierarchy and the reference, and
// requires the same hit level and writebacks for every access and the same
// counters and contents in every cache.
func TestPresenceMaskMatchesFullBackInvalidation(t *testing.T) {
	for _, cores := range []int{4, MaxCores} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cores=%d/seed=%d", cores, seed), func(t *testing.T) {
				h := smallHierarchy(t, cores)
				ref := &refHierarchy{l3: MustNew("ref.l3", 16*64, 4)}
				for c := 0; c < cores; c++ {
					ref.l1 = append(ref.l1, MustNew("ref.l1", 4*64, 2))
					ref.l2 = append(ref.l2, MustNew("ref.l2", 8*64, 2))
				}
				// 32 shared blocks, then 16 private to each core: several
				// times the 16-line L3.
				const shared, private = 32, 16
				blocks := uint64(shared + private*cores)
				rng := rand.New(rand.NewSource(seed))
				all := func(f func(name string, got, want *Cache)) {
					for c := 0; c < cores; c++ {
						f(fmt.Sprintf("l1.%d", c), h.l1[c], ref.l1[c])
						f(fmt.Sprintf("l2.%d", c), h.l2[c], ref.l2[c])
					}
					f("l3", h.l3, ref.l3)
				}
				for step := 0; step < 20000; step++ {
					core := rng.Intn(cores)
					blk := uint64(rng.Intn(shared))
					if rng.Intn(2) == 0 {
						blk = uint64(shared + private*core + rng.Intn(private))
					}
					a, write := blk*64+uint64(rng.Intn(64)), rng.Intn(4) == 0
					gotLvl, gotWB := h.Access(core, a, write)
					wantLvl, wantWB := ref.access(core, a, write)
					if gotLvl != wantLvl || !slices.Equal(gotWB, wantWB) {
						t.Fatalf("step %d core %d addr %#x: got (%v, %#x), reference (%v, %#x)",
							step, core, a, gotLvl, gotWB, wantLvl, wantWB)
					}
					if step%500 != 0 {
						continue
					}
					all(func(name string, got, want *Cache) {
						if got.Hits() != want.Hits() || got.Misses() != want.Misses() {
							t.Fatalf("step %d %s: hits/misses %d/%d, reference %d/%d",
								step, name, got.Hits(), got.Misses(), want.Hits(), want.Misses())
						}
						for b := uint64(0); b < blocks; b++ {
							if got.Probe(b*64) != want.Probe(b*64) {
								t.Fatalf("step %d %s: block %d present=%v, reference %v",
									step, name, b, got.Probe(b*64), want.Probe(b*64))
							}
						}
					})
				}
			})
		}
	}
}

func TestHitLevelString(t *testing.T) {
	for lvl, want := range map[HitLevel]string{L1: "L1", L2: "L2", L3: "L3", Memory: "memory", HitLevel(9): "HitLevel(9)"} {
		if lvl.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(lvl), lvl.String(), want)
		}
	}
}

// BenchmarkCacheHierarchyAccess streams four cores round-robin through the
// full three-level hierarchy, each over its own 1 MB region, so every
// access misses to memory and evicts an L3 line held by one core: the
// back-invalidation path the presence mask narrows. The per-level
// hit/miss/eviction mixes live in BenchmarkCacheAccess.
func BenchmarkCacheHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(HierarchyConfig{
		Cores: 4, L1Size: 8 << 10, L1Ways: 8, L2Size: 64 << 10, L2Ways: 8,
		L3Size: 256 << 10, L3Ways: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, n := i&3, i>>2
		h.Access(core, uint64(core)<<20|uint64(n*64)%(1<<20), n%4 == 0)
	}
}
