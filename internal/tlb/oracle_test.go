package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deact/internal/pagetable"
)

// refPTW is the reference PTWCache is held to: the same array, LRU and
// fills, but BestStartLevel looks for all three level keys in one sweep.
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

// TestPTWCacheMatchesSingleSweep drives random lookups and walk fills over
// keys clustered so that every level hits, and requires the real cache to
// return the reference's levels and counters and to hold the same entries
// with the same LRU stamps — so both evict in the same order.
func TestPTWCacheMatchesSingleSweep(t *testing.T) {
	for _, entries := range []int{4, 32} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				p := NewPTWCache(entries)
				ref := &refPTW{keys: make([]uint64, entries), stamps: make([]uint64, entries)}
				rng := rand.New(rand.NewSource(seed))
				steps := make([]pagetable.WalkStep, 0, pagetable.Levels)
				for op := 0; op < 20000; op++ {
					// 4 regions at each of the three cached levels' granularity.
					key := uint64(rng.Intn(4))<<27 | uint64(rng.Intn(4))<<18 |
						uint64(rng.Intn(4))<<9 | uint64(rng.Intn(512))
					if rng.Intn(3) == 0 {
						steps = steps[:0]
						for l := rng.Intn(pagetable.Levels); l < pagetable.Levels; l++ {
							steps = append(steps, pagetable.WalkStep{Level: l})
						}
						p.FillFromWalk(key, steps)
						ref.fill(key, steps)
					} else if got, want := p.BestStartLevel(key), ref.bestStartLevel(key); got != want {
						t.Fatalf("op %d: BestStartLevel(%#x) = %d, reference %d", op, key, got, want)
					}
					if p.Hits() != ref.hits || p.Misses() != ref.misses {
						t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", op, p.Hits(), p.Misses(), ref.hits, ref.misses)
					}
					if !slices.Equal(p.keys, ref.keys) || !slices.Equal(p.stamps, ref.stamps) {
						t.Fatalf("op %d: entries %x stamps %v, reference %x %v", op, p.keys, p.stamps, ref.keys, ref.stamps)
					}
				}
			})
		}
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
