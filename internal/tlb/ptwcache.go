package tlb

import (
	"deact/internal/arena"
	"deact/internal/pagetable"
)

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
	// key 0 doubles as the empty marker.
	keys   []uint64 // level-tagged keys; 0 = empty
	stamps []uint64 // LRU stamps; 0 for empty entries
	// index is an open-addressed (linear-probing) hash of the resident
	// keys: a slot holds an entry's position + 1, 0 for empty. It has at
	// least four times as many slots as entries, so probe runs stay short
	// and a lookup costs a probe or two instead of a sweep of every
	// entry. Evictions delete by backward shift, so no tombstones build
	// up.
	index  []uint64
	shift  uint     // 64 - log2(len(index)), for the multiplicative hash
	buf    []uint64 // the one array keys, stamps and index are cut from
	tick   uint64
	hits   uint64
	misses uint64
}

// NewPTWCache builds a PTW cache with the given entry count.
func NewPTWCache(entries int) *PTWCache {
	return NewPTWCacheInArena(nil, entries)
}

// NewPTWCacheInArena is NewPTWCache drawing the cache and its array from
// a. A nil arena allocates normally.
func NewPTWCacheInArena(a *arena.Arena, entries int) *PTWCache {
	if entries <= 0 {
		entries = 1
	}
	bits := uint(1)
	for 1<<bits < 4*entries {
		bits++
	}
	// One array carries the keys, the stamps and the index.
	buf := arena.Slice[uint64](a, "tlb.ptw", 2*entries+1<<bits)
	p := arena.Alloc[PTWCache](a, "tlb.PTWCache")
	p.buf = buf
	p.keys = buf[:entries:entries]
	p.stamps = buf[entries : 2*entries : 2*entries]
	p.index = buf[2*entries:]
	p.shift = 64 - bits
	return p
}

// Recycle returns the cache and its array to a for the next run's
// construction. The cache must not be used afterwards. A nil arena is a
// no-op.
func (p *PTWCache) Recycle(a *arena.Arena) {
	if a == nil {
		return
	}
	arena.Release(a, "tlb.ptw", p.buf)
	arena.Free(a, "tlb.PTWCache", p)
}

// levelKey collapses a page-number key to the coverage granularity of a
// level and tags it with the level so entries for different levels coexist.
// The level tag is ≥ 1, so no valid entry encodes to 0.
func levelKey(key uint64, level int) uint64 {
	shift := uint(9 * (pagetable.Levels - level))
	return (key>>shift)<<3 | uint64(level)
}

// home is lk's first probe slot (Fibonacci hashing).
func (p *PTWCache) home(lk uint64) uint64 { return (lk * 0x9E3779B97F4A7C15) >> p.shift }

// find returns the entry holding lk, or -1.
func (p *PTWCache) find(lk uint64) int {
	mask := uint64(len(p.index) - 1)
	for s := p.home(lk); ; s = (s + 1) & mask {
		v := p.index[s]
		if v == 0 {
			return -1
		}
		if p.keys[v-1] == lk {
			return int(v - 1)
		}
	}
}

// BestStartLevel returns the deepest walk level the cache can skip to for
// key (0 = no coverage, must start at the root). The deepest hit wins and
// is the only entry touched.
func (p *PTWCache) BestStartLevel(key uint64) int {
	p.tick++
	for level := 3; level >= 1; level-- {
		if i := p.find(levelKey(key, level)); i >= 0 {
			p.stamps[i] = p.tick
			p.hits++
			return level
		}
	}
	p.misses++
	return 0
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

// insert makes lk resident and most recently used. A miss replaces the
// entry with the smallest stamp, the lowest-indexed one on ties, so empty
// entries fill first.
func (p *PTWCache) insert(lk uint64) {
	p.tick++
	if i := p.find(lk); i >= 0 {
		p.stamps[i] = p.tick
		return
	}
	victim := 0
	victimStamp := ^uint64(0)
	for i, stamp := range p.stamps {
		if stamp < victimStamp {
			victimStamp, victim = stamp, i
		}
	}
	if old := p.keys[victim]; old != 0 {
		p.unindex(old)
	}
	p.keys[victim] = lk
	p.stamps[victim] = p.tick
	mask := uint64(len(p.index) - 1)
	s := p.home(lk)
	for p.index[s] != 0 {
		s = (s + 1) & mask
	}
	p.index[s] = uint64(victim) + 1
}

// unindex deletes the resident key lk from the index, shifting later
// members of its probe run back so every lookup still finds its key
// without tombstones.
func (p *PTWCache) unindex(lk uint64) {
	mask := uint64(len(p.index) - 1)
	hole := p.home(lk)
	for p.keys[p.index[hole]-1] != lk {
		hole = (hole + 1) & mask
	}
	for s := (hole + 1) & mask; p.index[s] != 0; s = (s + 1) & mask {
		// The key at s may fill the hole unless its home lies cyclically
		// in (hole, s]: then moving it would put it before its home.
		if h := p.home(p.keys[p.index[s]-1]); (s-h)&mask >= (s-hole)&mask {
			p.index[hole] = p.index[s]
			hole = s
		}
	}
	p.index[hole] = 0
}

// Flush empties the cache.
func (p *PTWCache) Flush() {
	clear(p.keys)
	clear(p.stamps)
	clear(p.index)
}

// Hits returns the number of lookups that found any usable level.
func (p *PTWCache) Hits() uint64 { return p.hits }

// Misses returns the number of lookups that found nothing.
func (p *PTWCache) Misses() uint64 { return p.misses }
