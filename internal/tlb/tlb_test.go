package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deact/internal/arena"
	"deact/internal/pagetable"
)

func TestNewGeometry(t *testing.T) {
	if _, err := New("t", 0, 1); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New("t", 32, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New("t", 33, 4); err == nil {
		t.Error("entries not multiple of ways accepted")
	}
	if _, err := New("t", 24, 4); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New("t", 32, 4); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func mustNew(t *testing.T, entries, ways int) *TLB {
	t.Helper()
	tl, err := New("t", entries, ways)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestLookupInsert(t *testing.T) {
	tl := mustNew(t, 32, 4)
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(5, 500)
	if v, ok := tl.Lookup(5); !ok || v != 500 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
	// Overwrite in place.
	tl.Insert(5, 501)
	if v, _ := tl.Lookup(5); v != 501 {
		t.Fatal("insert did not overwrite")
	}
	if tl.Hits() != 2 || tl.Misses() != 1 {
		t.Fatalf("counters h=%d m=%d", tl.Hits(), tl.Misses())
	}
	if r := tl.HitRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit rate %v", r)
	}
}

func TestLRUWithinSet(t *testing.T) {
	tl := mustNew(t, 2, 2) // 1 set, 2 ways
	tl.Insert(1, 10)
	tl.Insert(2, 20)
	tl.Lookup(1) // 2 becomes LRU
	tl.Insert(3, 30)
	if _, ok := tl.Lookup(2); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := tl.Lookup(1); !ok {
		t.Fatal("MRU entry evicted")
	}
	if _, ok := tl.Lookup(3); !ok {
		t.Fatal("new entry missing")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tl := mustNew(t, 32, 4)
	tl.Insert(7, 70)
	if !tl.Invalidate(7) {
		t.Fatal("invalidate missed present entry")
	}
	if tl.Invalidate(7) {
		t.Fatal("invalidate hit absent entry")
	}
	tl.Insert(8, 80)
	tl.Insert(9, 90)
	tl.Flush()
	if _, ok := tl.Lookup(8); ok {
		t.Fatal("entry survived flush")
	}
	if _, ok := tl.Lookup(9); ok {
		t.Fatal("entry survived flush")
	}
}

func TestMMULevels(t *testing.T) {
	m, err := NewMMU(MMUConfig{L1Entries: 32, L1Ways: 4, L2Entries: 256, L2Ways: 8, PTWEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, lvl := m.Lookup(1); lvl != MissBoth {
		t.Fatal("cold lookup should miss both")
	}
	m.Insert(1, 100)
	if v, lvl := m.Lookup(1); lvl != HitL1 || v != 100 {
		t.Fatalf("lookup = (%d,%v)", v, lvl)
	}
	// Evict from L1 only: fill L1's set. L1 has 8 sets, so keys congruent
	// mod 8 collide; keys 1,9,17,25,33 overflow 4 ways.
	for _, k := range []uint64{9, 17, 25, 33} {
		m.Insert(k, k*10)
	}
	if _, lvl := m.Lookup(1); lvl != HitL2 {
		t.Fatalf("expected L2 hit after L1 eviction, got %v", lvl)
	}
	// The L2 hit re-promoted it into L1.
	if _, lvl := m.Lookup(1); lvl != HitL1 {
		t.Fatal("L2 hit did not promote to L1")
	}
	m.Invalidate(1)
	if _, lvl := m.Lookup(1); lvl != MissBoth {
		t.Fatal("invalidate did not reach both levels")
	}
}

func TestMMUBadConfig(t *testing.T) {
	if _, err := NewMMU(MMUConfig{L1Entries: 0, L1Ways: 1, L2Entries: 8, L2Ways: 1}); err == nil {
		t.Fatal("bad L1 accepted")
	}
	if _, err := NewMMU(MMUConfig{L1Entries: 8, L1Ways: 1, L2Entries: 0, L2Ways: 1}); err == nil {
		t.Fatal("bad L2 accepted")
	}
}

func seqAlloc() pagetable.PageAllocator {
	next := uint64(1000)
	return pagetable.AllocFunc(func() (uint64, error) { next++; return next, nil })
}

func TestPTWCacheShortensWalks(t *testing.T) {
	tbl, _ := pagetable.New("pt", seqAlloc())
	tbl.Map(0x12345, 7)
	p := NewPTWCache(32)
	if lvl := p.BestStartLevel(0x12345); lvl != 0 {
		t.Fatalf("cold PTW cache start level %d", lvl)
	}
	steps, _, ok := tbl.Walk(0x12345, 0)
	if !ok || len(steps) != 4 {
		t.Fatal("setup walk failed")
	}
	p.FillFromWalk(0x12345, steps)
	// Same PTE page → can start at the last level.
	if lvl := p.BestStartLevel(0x12345); lvl != 3 {
		t.Fatalf("warm start level %d, want 3", lvl)
	}
	// A neighbouring key in the same PTE page also benefits.
	if lvl := p.BestStartLevel(0x12346); lvl != 3 {
		t.Fatalf("neighbour start level %d, want 3", lvl)
	}
	// A key in a different PTE page but the same PMD subtree gets level 2.
	if lvl := p.BestStartLevel(0x12345 + (1 << 9)); lvl != 2 {
		t.Fatalf("sibling-PTE-page start level %d, want 2", lvl)
	}
	// A key in a different PUD subtree can only skip the root read.
	if lvl := p.BestStartLevel(0x12345 + (1 << 18)); lvl != 1 {
		t.Fatalf("far key start level %d, want 1", lvl)
	}
	p.Flush()
	if lvl := p.BestStartLevel(0x12345); lvl != 0 {
		t.Fatal("flush did not clear PTW cache")
	}
	if p.Hits() == 0 || p.Misses() == 0 {
		t.Fatal("PTW counters not maintained")
	}
}

func TestPTWCacheCapacityEvicts(t *testing.T) {
	p := NewPTWCache(2)
	tbl, _ := pagetable.New("pt", seqAlloc())
	// Three distinct PTE-page regions: each fill inserts 3 level entries,
	// cache holds 2, so older coverage must disappear.
	keys := []uint64{0, 1 << 27, 2 << 27}
	for _, k := range keys {
		tbl.Map(k, 1)
		steps, _, _ := tbl.Walk(k, 0)
		p.FillFromWalk(k, steps)
	}
	if lvl := p.BestStartLevel(keys[0]); lvl == 3 {
		t.Fatal("tiny PTW cache retained everything")
	}
}

// Property: TLB Lookup-after-Insert always hits with the inserted value.
func TestTLBRoundTripQuick(t *testing.T) {
	tl := mustNew(t, 64, 4)
	f := func(k uint32, v uint32) bool {
		tl.Insert(uint64(k), uint64(v))
		got, ok := tl.Lookup(uint64(k))
		return ok && got == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTLBLookup drives the per-reference MMU path. "lookup" cycles a
// 512-page working set that overflows both levels, so every call misses in
// L1 and L2 without a fill. "miss-fill" is the simulator's shape: a skewed
// stream of pages, each miss followed by the MMU fill the page walk ends
// with, so the fills reuse the victims their misses recorded.
func BenchmarkTLBLookup(b *testing.B) {
	newMMU := func(b *testing.B) *MMU {
		m, err := NewMMU(MMUConfig{L1Entries: 32, L1Ways: 4, L2Entries: 256, L2Ways: 8, PTWEntries: 32})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("lookup", func(b *testing.B) {
		m := newMMU(b)
		for i := uint64(0); i < 512; i++ {
			m.Insert(i, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Lookup(uint64(i) % 512)
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		m := newMMU(b)
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, 4096)
		for i := range keys {
			// Half the references go to 64 hot pages, the rest to 4096.
			if rng.Intn(2) == 0 {
				keys[i] = uint64(rng.Intn(64))
			} else {
				keys[i] = uint64(rng.Intn(4096))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			if _, lvl := m.Lookup(k); lvl == MissBoth {
				m.Insert(k, k)
			}
		}
	})
}

// BenchmarkPTWCache is one page walk's use of the PTW cache: a lookup for
// the deepest cached level, then the fill of the levels the walk read.
// Page keys are skewed over 64 PTE pages in 16 level-2 regions, so lookups
// hit at every level and fills both refresh and evict.
func BenchmarkPTWCache(b *testing.B) {
	p := NewPTWCache(32)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		region := uint64(rng.Intn(16))
		if rng.Intn(2) == 0 {
			region = uint64(rng.Intn(2))
		}
		keys[i] = region<<18 | uint64(rng.Intn(4))<<9 | uint64(rng.Intn(512))
	}
	all := make([]pagetable.WalkStep, pagetable.Levels)
	for l := range all {
		all[l].Level = l
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		p.FillFromWalk(k, all[p.BestStartLevel(k):])
	}
}

// TestNewInArenaReusesArrays: a TLB built after Recycle of the same
// geometry takes its header and all three entry arrays from the arena and
// allocates nothing; without an arena it allocates all four.
func TestNewInArenaReusesArrays(t *testing.T) {
	build := func(a *arena.Arena) func() {
		return func() {
			tl, err := NewInArena(a, "t", 1024, 8)
			if err != nil {
				t.Fatal(err)
			}
			tl.Recycle(a)
		}
	}
	if n := testing.AllocsPerRun(10, build(arena.New())); n != 0 {
		t.Fatalf("recycled TLB construction allocated %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, build(nil)); n != 4 {
		t.Fatalf("unpooled TLB construction allocated %.0f times, want 4 (header and three arrays)", n)
	}
}

// TestRecycledTLBStartsEmpty: a TLB built from a recycled arena holds none
// of its predecessor's entries or counters.
func TestRecycledTLBStartsEmpty(t *testing.T) {
	a := arena.New()
	old, err := NewInArena(a, "t", 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		old.Insert(k, k+100)
	}
	old.Recycle(a)
	fresh, err := NewInArena(a, "t", 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		if v, ok := fresh.Lookup(k); ok {
			t.Fatalf("recycled TLB hit key %d → %d", k, v)
		}
	}
}
