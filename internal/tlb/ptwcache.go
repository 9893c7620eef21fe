package tlb

import "deact/internal/pagetable"

// PTWCache caches intermediate page-table levels so a walker can skip the
// upper steps of a walk ([8]; 32 entries in the paper's configuration). An
// entry records that the table node serving `key` at `level` is known, so a
// walk for that key may start at `level`.
//
// Keys are stored per level at that level's granularity: a level-1 entry
// covers all keys sharing the top 9 index bits, a level-3 entry covers one
// PTE page (512 mappings).
type PTWCache struct {
	// One fully associative LRU array shared by all levels, as in [8].
	// Level-tagged keys always have a non-zero level in their low bits, so
	// key 0 doubles as the empty marker and lookups are a single compare
	// per entry.
	entries int
	keys    []uint64 // level-tagged keys; 0 = empty
	stamps  []uint64 // LRU stamps; 0 for empty entries
	tick    uint64
	hits    uint64
	misses  uint64
}

// NewPTWCache builds a PTW cache with the given entry count.
func NewPTWCache(entries int) *PTWCache {
	if entries <= 0 {
		entries = 1
	}
	return &PTWCache{
		entries: entries,
		keys:    make([]uint64, entries),
		stamps:  make([]uint64, entries),
	}
}

// levelKey collapses a page-number key to the coverage granularity of a
// level and tags it with the level so entries for different levels coexist.
// The level tag is ≥ 1, so no valid entry encodes to 0.
func levelKey(key uint64, level int) uint64 {
	shift := uint(9 * (pagetable.Levels - level))
	return (key>>shift)<<3 | uint64(level)
}

// BestStartLevel returns the deepest walk level the cache can skip to for
// key (0 = no coverage, must start at the root). The deepest hit wins and
// is the only entry touched. A first sweep looks for the level-3 key alone,
// the common hit; only on a miss does a second sweep look for the level-2
// and level-1 keys. Keys are unique in the array, so this touches the same
// entry as one sweep over all three.
func (p *PTWCache) BestStartLevel(key uint64) int {
	p.tick++
	lk3 := levelKey(key, 3)
	for i, k := range p.keys {
		if k == lk3 {
			return p.hit(i, 3)
		}
	}
	lk2 := levelKey(key, 2)
	lk1 := levelKey(key, 1)
	i1 := -1
	for i, k := range p.keys {
		switch k {
		case lk2:
			return p.hit(i, 2)
		case lk1:
			i1 = i
		}
	}
	if i1 >= 0 {
		return p.hit(i1, 1)
	}
	p.misses++
	return 0
}

// hit records a BestStartLevel hit on entry i and returns its level.
func (p *PTWCache) hit(i, level int) int {
	p.stamps[i] = p.tick
	p.hits++
	return level
}

// FillFromWalk records the intermediate nodes touched by a completed walk so
// future walks for nearby keys can skip them. The PTE-level *data* goes to
// the TLB, not here; we record coverage for levels 1..3 (being able to start
// at level L means the level-(L-1) entry is cached).
func (p *PTWCache) FillFromWalk(key uint64, steps []pagetable.WalkStep) {
	for _, s := range steps {
		if s.Level == pagetable.Levels-1 {
			continue // the PTE itself belongs in the TLB
		}
		// Completing the read of level s.Level lets future walks start at
		// s.Level+1.
		p.insert(levelKey(key, s.Level+1))
	}
}

func (p *PTWCache) insert(lk uint64) {
	p.tick++
	victim := 0
	victimStamp := ^uint64(0)
	for i := 0; i < p.entries; i++ {
		if p.keys[i] == lk {
			p.stamps[i] = p.tick
			return
		}
		if p.stamps[i] < victimStamp {
			victimStamp = p.stamps[i]
			victim = i
		}
	}
	p.keys[victim] = lk
	p.stamps[victim] = p.tick
}

// Flush empties the cache.
func (p *PTWCache) Flush() {
	for i := range p.keys {
		p.keys[i] = 0
		p.stamps[i] = 0
	}
}

// Hits returns the number of lookups that found any usable level.
func (p *PTWCache) Hits() uint64 { return p.hits }

// Misses returns the number of lookups that found nothing.
func (p *PTWCache) Misses() uint64 { return p.misses }
