package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deact/internal/pagetable"
)

// refPTW is the reference PTWCache is held to: the same array, LRU and
// fills, but every lookup and fill is a linear sweep of the array (the
// lookup finds all three level keys in one sweep) where PTWCache probes
// its hash index.
type refPTW struct {
	keys, stamps       []uint64
	tick, hits, misses uint64
}

func (p *refPTW) bestStartLevel(key uint64) int {
	p.tick++
	lk1, lk2, lk3 := levelKey(key, 1), levelKey(key, 2), levelKey(key, 3)
	i1, i2, i3 := -1, -1, -1
	for i, k := range p.keys {
		switch k {
		case lk3:
			i3 = i
		case lk2:
			i2 = i
		case lk1:
			i1 = i
		}
	}
	idx, level := -1, 0
	switch {
	case i3 >= 0:
		idx, level = i3, 3
	case i2 >= 0:
		idx, level = i2, 2
	case i1 >= 0:
		idx, level = i1, 1
	default:
		p.misses++
		return 0
	}
	p.stamps[idx] = p.tick
	p.hits++
	return level
}

func (p *refPTW) fill(key uint64, steps []pagetable.WalkStep) {
	for _, s := range steps {
		if s.Level == pagetable.Levels-1 {
			continue
		}
		lk := levelKey(key, s.Level+1)
		p.tick++
		victim, victimStamp := 0, ^uint64(0)
		found := false
		for i, k := range p.keys {
			if k == lk {
				p.stamps[i] = p.tick
				found = true
				break
			}
			if p.stamps[i] < victimStamp {
				victimStamp, victim = p.stamps[i], i
			}
		}
		if !found {
			p.keys[victim], p.stamps[victim] = lk, p.tick
		}
	}
}

// TestPTWCacheMatchesSingleSweep drives random lookups, walk fills and
// the odd Flush, and requires the real cache to return the reference's
// levels and counters and to hold the same entries with the same LRU
// stamps — so both evict in the same order — with an index that finds
// every resident key and nothing else. Keys come in phases: clustered so
// that every level hits, or spread so wide that nearly every fill evicts
// and the index deletes by backward shift on most fills.
func TestPTWCacheMatchesSingleSweep(t *testing.T) {
	for _, entries := range []int{4, 32} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				p := NewPTWCache(entries)
				ref := &refPTW{keys: make([]uint64, entries), stamps: make([]uint64, entries)}
				rng := rand.New(rand.NewSource(seed))
				steps := make([]pagetable.WalkStep, 0, pagetable.Levels)
				spread := false
				for op := 0; op < 20000; op++ {
					if op%1000 == 0 {
						spread = rng.Intn(3) == 0
					}
					// 4 regions at each of the three cached levels'
					// granularity, or 64 when the phase is spread.
					width := 4
					if spread {
						width = 64
					}
					key := uint64(rng.Intn(width))<<27 | uint64(rng.Intn(width))<<18 |
						uint64(rng.Intn(width))<<9 | uint64(rng.Intn(512))
					switch r := rng.Intn(300); {
					case r == 0:
						p.Flush()
						clear(ref.keys)
						clear(ref.stamps)
					case r < 100:
						steps = steps[:0]
						for l := rng.Intn(pagetable.Levels); l < pagetable.Levels; l++ {
							steps = append(steps, pagetable.WalkStep{Level: l})
						}
						p.FillFromWalk(key, steps)
						ref.fill(key, steps)
					default:
						if got, want := p.BestStartLevel(key), ref.bestStartLevel(key); got != want {
							t.Fatalf("op %d: BestStartLevel(%#x) = %d, reference %d", op, key, got, want)
						}
					}
					if p.Hits() != ref.hits || p.Misses() != ref.misses {
						t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", op, p.Hits(), p.Misses(), ref.hits, ref.misses)
					}
					if !slices.Equal(p.keys, ref.keys) || !slices.Equal(p.stamps, ref.stamps) {
						t.Fatalf("op %d: entries %x stamps %v, reference %x %v", op, p.keys, p.stamps, ref.keys, ref.stamps)
					}
					checkPTWIndex(t, op, p)
				}
			})
		}
	}
}

// checkPTWIndex requires the index to hold exactly the resident entries,
// each reachable by a probe from its key's home slot.
func checkPTWIndex(t *testing.T, op int, p *PTWCache) {
	t.Helper()
	resident, indexed := 0, 0
	for i, k := range p.keys {
		if k == 0 {
			continue
		}
		resident++
		if got := p.find(k); got != i {
			t.Fatalf("op %d: entry %d (key %#x) found at %d", op, i, k, got)
		}
	}
	for _, v := range p.index {
		if v != 0 {
			indexed++
		}
	}
	if indexed != resident {
		t.Fatalf("op %d: index holds %d slots for %d resident entries", op, indexed, resident)
	}
}

// refTLB is the reference TLB is held to: the same LRU, with a valid bit
// per way instead of a sentinel tag.
type refTLB struct {
	setMask            uint64
	ways               int
	tags, values       []uint64
	valid              []bool
	stamps             []uint64
	tick, hits, misses uint64
}

func (t *refTLB) lookup(key uint64) (uint64, bool) {
	base := (key & t.setMask) * uint64(t.ways)
	t.tick++
	for i := base; i < base+uint64(t.ways); i++ {
		if t.valid[i] && t.tags[i] == key {
			t.stamps[i] = t.tick
			t.hits++
			return t.values[i], true
		}
	}
	t.misses++
	return 0, false
}

func (t *refTLB) insert(key, value uint64) {
	base := (key & t.setMask) * uint64(t.ways)
	t.tick++
	victim, victimStamp := base, ^uint64(0)
	for i := base; i < base+uint64(t.ways); i++ {
		if t.valid[i] && t.tags[i] == key {
			t.values[i], t.stamps[i] = value, t.tick
			return
		}
		stamp := t.stamps[i]
		if !t.valid[i] {
			stamp = 0
		}
		if stamp < victimStamp {
			victim, victimStamp = i, stamp
		}
	}
	t.tags[victim], t.values[victim], t.valid[victim], t.stamps[victim] = key, value, true, t.tick
}

func (t *refTLB) invalidate(key uint64) bool {
	base := (key & t.setMask) * uint64(t.ways)
	for i := base; i < base+uint64(t.ways); i++ {
		if t.valid[i] && t.tags[i] == key {
			t.valid[i] = false
			return true
		}
	}
	return false
}

// TestTLBMatchesValidBitReference drives random lookups, fills,
// shootdowns and flushes through a small TLB and the reference, and
// requires the same answer to every call and the same counters, so an
// emptied way is refilled exactly as the valid-bit version refills it.
func TestTLBMatchesValidBitReference(t *testing.T) {
	const entries, ways = 32, 4
	for seed := int64(1); seed <= 4; seed++ {
		tl := mustNew(t, entries, ways)
		ref := &refTLB{setMask: entries/ways - 1, ways: ways,
			tags: make([]uint64, entries), values: make([]uint64, entries),
			valid: make([]bool, entries), stamps: make([]uint64, entries)}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 50000; op++ {
			key := uint64(rng.Intn(3 * entries))
			switch r := rng.Intn(100); {
			case r < 50:
				v, ok := tl.Lookup(key)
				rv, rok := ref.lookup(key)
				if v != rv || ok != rok {
					t.Fatalf("seed %d op %d: Lookup(%d) = %d,%v, reference %d,%v", seed, op, key, v, ok, rv, rok)
				}
			case r < 85:
				tl.Insert(key, uint64(op))
				ref.insert(key, uint64(op))
			case r < 99:
				if got, want := tl.Invalidate(key), ref.invalidate(key); got != want {
					t.Fatalf("seed %d op %d: Invalidate(%d) = %v, reference %v", seed, op, key, got, want)
				}
			default:
				tl.Flush()
				clear(ref.valid)
			}
		}
		if tl.Hits() != ref.hits || tl.Misses() != ref.misses {
			t.Fatalf("seed %d: hits/misses %d/%d, reference %d/%d", seed, tl.Hits(), tl.Misses(), ref.hits, ref.misses)
		}
	}
}

// TestTLBMissFillMatchesRescan holds the miss-recorded fill to the
// rescanning Insert. Every Lookup that misses is followed by an Insert of
// the same key, with nothing between it and the fill or with an
// Invalidate, a Flush, a Lookup or an Insert of another key in the same
// set, and sometimes the fill is of a different key. After every call the
// TLB must answer as the reference answers and hold the same entries with
// the same LRU stamps, so a stale recorded victim shows up as a wrong way.
func TestTLBMissFillMatchesRescan(t *testing.T) {
	const entries, ways = 32, 4
	const sets = entries / ways
	for seed := int64(1); seed <= 6; seed++ {
		tl := mustNew(t, entries, ways)
		ref := &refTLB{setMask: sets - 1, ways: ways,
			tags: make([]uint64, entries), values: make([]uint64, entries),
			valid: make([]bool, entries), stamps: make([]uint64, entries)}
		rng := rand.New(rand.NewSource(seed))
		sameSet := func(key uint64) uint64 { return key&(sets-1) | uint64(rng.Intn(3*ways))*sets }
		check := func(op int, what string) {
			t.Helper()
			for i := range entries {
				if ref.valid[i] != (tl.tags[i] != emptyTag) ||
					ref.valid[i] && (tl.tags[i] != ref.tags[i] || tl.values[i] != ref.values[i] || tl.stamps[i] != ref.stamps[i]) {
					t.Fatalf("seed %d op %d (%s): way %d holds tag %d value %d stamp %d, reference valid=%v %d %d %d",
						seed, op, what, i, tl.tags[i], tl.values[i], tl.stamps[i], ref.valid[i], ref.tags[i], ref.values[i], ref.stamps[i])
				}
			}
			if tl.Hits() != ref.hits || tl.Misses() != ref.misses {
				t.Fatalf("seed %d op %d (%s): hits/misses %d/%d, reference %d/%d", seed, op, what, tl.Hits(), tl.Misses(), ref.hits, ref.misses)
			}
		}
		for op := 0; op < 30000; op++ {
			key := uint64(rng.Intn(3 * entries))
			v, ok := tl.Lookup(key)
			if rv, rok := ref.lookup(key); v != rv || ok != rok {
				t.Fatalf("seed %d op %d: Lookup(%d) = %d,%v, reference %d,%v", seed, op, key, v, ok, rv, rok)
			}
			check(op, "lookup")
			if ok {
				continue
			}
			between := "nothing"
			switch rng.Intn(8) {
			case 0:
				between = "invalidate"
				other := sameSet(key)
				if got, want := tl.Invalidate(other), ref.invalidate(other); got != want {
					t.Fatalf("seed %d op %d: Invalidate(%d) = %v, reference %v", seed, op, other, got, want)
				}
			case 1:
				between = "flush"
				tl.Flush()
				clear(ref.valid)
			case 2:
				between = "lookup"
				other := sameSet(key)
				tl.Lookup(other)
				ref.lookup(other)
			case 3:
				between = "insert"
				other := sameSet(key)
				tl.Insert(other, uint64(op)<<1)
				ref.insert(other, uint64(op)<<1)
			}
			check(op, between)
			fill := key
			if rng.Intn(10) == 0 {
				fill = sameSet(key)
			}
			tl.Insert(fill, uint64(op))
			ref.insert(fill, uint64(op))
			check(op, "fill after "+between)
		}
	}
}
