package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// oraclePair builds the same geometry twice: once with the rank-word
// representation New selects at assoc ≤ 16, once forced onto the per-way
// stamp representation the rank word replaced. The stamp cache is the
// oracle: the rank word is only correct if every observable output —
// hit/miss, victim identity, victim dirtiness, Probe — is bit-identical.
func oraclePair(t *testing.T, sizeBytes uint64, ways int) (rank, stamp *Cache) {
	t.Helper()
	rank, err := newCache(nil, "rank", sizeBytes, ways, false)
	if err != nil {
		t.Fatal(err)
	}
	if rank.order == nil {
		t.Fatalf("geometry %d/%d did not select the rank word", sizeBytes, ways)
	}
	stamp, err = newCache(nil, "stamp", sizeBytes, ways, true)
	if err != nil {
		t.Fatal(err)
	}
	if stamp.used == nil {
		t.Fatal("forceStamps did not select the stamp representation")
	}
	return rank, stamp
}

// TestRankWordMatchesStampOracle drives randomized access/invalidate
// streams through both representations at every rank-capable associativity
// and requires bit-identical observable behaviour at each step. The
// address range is kept tight (a few sets' worth of conflicting blocks) so
// evictions, refills and re-invalidations all occur constantly.
func TestRankWordMatchesStampOracle(t *testing.T) {
	for _, tc := range []struct {
		sizeBytes uint64
		ways      int
	}{
		{64 * 4, 1},       // direct-mapped, 4 sets
		{64 * 2, 2},       // one set, 2 ways
		{64 * 4 * 2, 4},   // 2 sets
		{64 * 8, 8},       // one set, 8 ways
		{64 * 8 * 4, 8},   // 4 sets (the L1/L2 shape)
		{64 * 16, 16},     // one set, 16 ways (all nibbles used)
		{64 * 16 * 4, 16}, // 4 sets, 16 ways (the L3 shape)
	} {
		t.Run(fmt.Sprintf("%dB_%dway", tc.sizeBytes, tc.ways), func(t *testing.T) {
			rank, stamp := oraclePair(t, tc.sizeBytes, tc.ways)
			rng := rand.New(rand.NewSource(int64(tc.sizeBytes)*31 + int64(tc.ways)))

			// 4x the capacity in distinct blocks forces steady conflict.
			blocks := 4 * int(tc.sizeBytes) / 64
			steps := 20000
			if testing.Short() {
				steps = 4000
			}
			for i := 0; i < steps; i++ {
				a := uint64(rng.Intn(blocks)) * 64
				switch rng.Intn(10) {
				case 0: // invalidate (resident or not)
					p1, d1 := rank.Invalidate(a)
					p2, d2 := stamp.Invalidate(a)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("step %d: Invalidate(%#x) diverged: rank=(%v,%v) stamp=(%v,%v)", i, a, p1, d1, p2, d2)
					}
				default:
					w := rng.Intn(3) == 0
					h1, v1, e1 := rank.Access(a, w)
					h2, v2, e2 := stamp.Access(a, w)
					if h1 != h2 || e1 != e2 || v1 != v2 {
						t.Fatalf("step %d: Access(%#x,%v) diverged: rank=(%v,%+v,%v) stamp=(%v,%+v,%v)",
							i, a, w, h1, v1, e1, h2, v2, e2)
					}
				}
				if p := uint64(rng.Intn(blocks)) * 64; rank.Probe(p) != stamp.Probe(p) {
					t.Fatalf("step %d: Probe diverged", i)
				}
			}
			if rank.Hits() != stamp.Hits() || rank.Misses() != stamp.Misses() {
				t.Fatalf("counters diverged: rank %d/%d stamp %d/%d",
					rank.Hits(), rank.Misses(), stamp.Hits(), stamp.Misses())
			}
		})
	}
}

// TestRankWordInvalidateTieBreak pins the subtle case the stamp scan
// resolves implicitly: multiple simultaneously-empty ways must refill
// lowest-way-first regardless of the order they were invalidated in.
func TestRankWordInvalidateTieBreak(t *testing.T) {
	for _, order := range [][2]uint64{{1, 3}, {3, 1}} {
		rank, stamp := oraclePair(t, 64*4, 4) // one set, 4 ways
		for _, c := range []*Cache{rank, stamp} {
			for w := uint64(0); w < 4; w++ {
				c.Access(w*64, false) // fill ways 0..3 with blocks 0..3
			}
			c.Invalidate(order[0] * 64)
			c.Invalidate(order[1] * 64)
		}
		// Two refills must land in the emptied ways lowest-way-first on
		// both representations: no evictions, then the next miss evicts
		// the same victim on both.
		for i, a := range []uint64{9 * 64, 10 * 64, 11 * 64} {
			h1, v1, e1 := rank.Access(a, false)
			h2, v2, e2 := stamp.Access(a, false)
			if h1 != h2 || e1 != e2 || v1 != v2 {
				t.Fatalf("invalidate order %v, refill %d: rank=(%v,%+v,%v) stamp=(%v,%+v,%v)",
					order, i, h1, v1, e1, h2, v2, e2)
			}
			if i < 2 && e1 {
				t.Fatalf("refill %d evicted despite empty ways", i)
			}
		}
	}
}

// TestInitOrderWord pins the rank-word layout: way 0 at the LRU position,
// filler nibbles 0xF above the used region.
func TestInitOrderWord(t *testing.T) {
	if got := initOrderWord(16); got != 0x0123456789ABCDEF {
		t.Errorf("initOrderWord(16) = %#x", got)
	}
	if got := initOrderWord(2); got != 0xFFFF_FFFF_FFFF_FF01 {
		t.Errorf("initOrderWord(2) = %#x", got)
	}
	if got := initOrderWord(1); got != 0xFFFF_FFFF_FFFF_FFF0 {
		t.Errorf("initOrderWord(1) = %#x", got)
	}
}

// BenchmarkCacheAccess guards the per-access cost of the three access
// outcomes the hierarchy mixes: repeat hits (MRU probe), scan hits
// (tag scan + rank promotion), and a streaming miss/eviction mix (victim
// selection). Run with -benchmem: every path must stay at 0 allocs/op.
func BenchmarkCacheAccess(b *testing.B) {
	for _, ways := range []int{8, 16} {
		c := MustNew("bench", 64<<10, ways) // the L2 shape (and L3 assoc)
		sets := int(c.Sets())

		b.Run(fmt.Sprintf("hit-mru/%dway", ways), func(b *testing.B) {
			c.Access(0, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(0, false)
			}
		})
		b.Run(fmt.Sprintf("hit-scan/%dway", ways), func(b *testing.B) {
			// Two blocks in one set: each access hits the non-MRU way,
			// missing the MRU probe and exercising promotion.
			a0, a1 := uint64(0), uint64(sets*64)
			c.Access(a0, false)
			c.Access(a1, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access([2]uint64{a0, a1}[i&1], false)
			}
		})
		b.Run(fmt.Sprintf("miss-evict/%dway", ways), func(b *testing.B) {
			// A strided stream over 2x the cache's reach: every access
			// misses and, once warm, evicts (dirty half the time).
			blocks := 2 * sets * ways
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i%blocks)*64, i&2 == 0)
			}
		})
	}
}
