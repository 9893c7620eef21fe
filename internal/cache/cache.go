// Package cache implements the on-chip cache hierarchy of a compute node:
// set-associative, LRU-replaced, write-back write-allocate caches with 64B
// blocks, composed into the inclusive L1/L2/L3 hierarchy of Table II.
//
// The package is purely functional with respect to time: it reports which
// level served an access and which dirty blocks were evicted; the node model
// charges latencies and issues the write-back traffic (which, for FAM-zone
// blocks, itself needs system-level translation — a detail the paper's
// I-FAM/DeACT comparison depends on).
//
// The line arrays are laid out struct-of-arrays (tags and dirty bits in
// separate dense slices) so the hit path scans only tags.
//
// Replacement is exact LRU. At associativity ≤ 16 each set's full recency
// order lives in one uint64 rank word (a 4-bit way index per recency
// position, MRU first), so hit promotion and victim selection are
// constant-width bit operations on a single word instead of a scan over a
// per-way stamp array. The word's lowest nibble names the set's MRU way,
// so a repeat access to a set's most recent block needs a single probe
// and no recency update. Wider caches fall back to per-way stamps. The two
// representations choose bit-identical victims (the rank word is
// property-tested against the stamp implementation), so simulation output
// does not depend on which one a geometry selects.
//
// Invariants: accesses allocate nothing, and a cache's behaviour is a pure
// deterministic function of its access history — both properties the
// simulator's byte-identical-report guarantee rests on.
package cache

import (
	"fmt"
	"math/bits"

	"deact/internal/addr"
	"deact/internal/arena"
)

// Victim describes a block evicted by an Access.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// invalidTag marks an empty way in the tags array. Real tags are block
// numbers divided by the set count, far below 2^63 for any physical
// address space this simulator models.
const invalidTag = ^uint64(0)

// rankWays is the widest associativity whose recency order fits one rank
// word: 16 ways × 4-bit way index.
const rankWays = 16

// Cache is one set-associative cache level.
type Cache struct {
	name     string
	ways     int
	sets     uint64
	setMask  uint64   // sets-1 (set count is a power of two)
	setShift uint     // log2(sets)
	tags     []uint64 // sets × ways, row-major; invalidTag when empty
	dirty    []bool

	// order is the rank-word recency state (ways ≤ rankWays): one uint64
	// per set listing way indices MRU-first, 4 bits per recency position;
	// unused high nibbles hold 0xF. nil in stamp mode.
	order []uint64
	// used holds per-way LRU stamps (ways > rankWays); 0 for empty ways
	// (stamps start at 1). nil in rank mode.
	used []uint64
	tick uint64

	hits   uint64
	misses uint64
}

// New builds a cache of the given total size in bytes with the given
// associativity and 64B blocks. Size must be a power-of-two multiple of
// ways*64 so that the set count is a power of two.
func New(name string, sizeBytes uint64, ways int) (*Cache, error) {
	return NewInArena(nil, name, sizeBytes, ways)
}

// NewInArena is New drawing the cache and its line arrays (tags, recency
// state, dirty bits) from a, so a sweep's hundreds of systems recycle one
// set of allocations. A nil arena allocates normally.
func NewInArena(a *arena.Arena, name string, sizeBytes uint64, ways int) (*Cache, error) {
	return newCache(a, name, sizeBytes, ways, false)
}

// newCache is the real constructor. forceStamps selects the stamp
// representation even at rank-word-capable associativities — the
// equivalence property test uses it to pit the two against each other.
func newCache(a *arena.Arena, name string, sizeBytes uint64, ways int, forceStamps bool) (*Cache, error) {
	sets, err := geometry(name, sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	n := sets * uint64(ways)
	c := arena.Alloc[Cache](a, "cache.Cache")
	c.name = name
	c.ways = ways
	c.sets = sets
	c.setMask = sets - 1
	c.setShift = uint(bits.TrailingZeros64(sets))
	c.tags = arena.Slice[uint64](a, "cache.tags", int(n))
	c.dirty = arena.Slice[bool](a, "cache.dirty", int(n))
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if ways <= rankWays && !forceStamps {
		c.order = arena.Slice[uint64](a, "cache.order", int(sets))
		init := initOrderWord(ways)
		for i := range c.order {
			c.order[i] = init
		}
	} else {
		c.used = arena.Slice[uint64](a, "cache.used", int(n))
	}
	return c, nil
}

// geometry is the shape rule every cache obeys, also applied by
// HierarchyConfig.Validate: at most 65536 ways and a non-zero power-of-two
// set count. It returns the set count.
func geometry(name string, sizeBytes uint64, ways int) (uint64, error) {
	if ways <= 0 || ways > 1<<16 {
		return 0, fmt.Errorf("cache %s: ways %d out of range", name, ways)
	}
	sets := sizeBytes / (addr.BlockSize * uint64(ways))
	if sets == 0 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache %s: %d bytes / %d ways yields non-power-of-two set count %d", name, sizeBytes, ways, sets)
	}
	return sets, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(name string, sizeBytes uint64, ways int) *Cache {
	c, err := New(name, sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// recycle returns the cache and its line arrays to a for the next run's
// construction. The cache must not be used afterwards.
func (c *Cache) recycle(a *arena.Arena) {
	arena.Release(a, "cache.tags", c.tags)
	arena.Release(a, "cache.dirty", c.dirty)
	arena.Release(a, "cache.order", c.order)
	arena.Release(a, "cache.used", c.used)
	arena.Free(a, "cache.Cache", c)
}

// Rank-word layout: nibble p of a set's order word holds the way index at
// recency position p — position 0 is the MRU way, position ways-1 the LRU
// way (the victim). Unused nibbles hold 0xF, a value no way index reaches
// (way indices only go to 15 when all 16 nibbles are in use), so they are
// inert under the SWAR search below.
const (
	nibLSB = 0x1111_1111_1111_1111
	nibMSB = 0x8888_8888_8888_8888
)

// initOrderWord returns the order word of an empty set: way 0 at the LRU
// position, way ways-1 at the MRU position, so empty ways fill in way
// order — exactly the tie-break the stamp scan applies to all-zero stamps.
func initOrderWord(ways int) uint64 {
	word := ^uint64(0)
	for p := 0; p < ways; p++ {
		word &^= 0xF << (4 * uint(p))
		word |= uint64(ways-1-p) << (4 * uint(p))
	}
	return word
}

// findPos returns the recency position of way w in word. Exactly one
// nibble equals w (the word is a permutation over the used positions); the
// zero-nibble SWAR can flag false positives only above a true zero, so the
// lowest flagged nibble is always the match.
func findPos(word, w uint64) uint {
	t := word ^ (w * nibLSB)
	z := (t - nibLSB) &^ t & nibMSB
	return uint(bits.TrailingZeros64(z)) >> 2
}

// promote moves the way w sitting at position p to position 0 (MRU),
// shifting positions 0..p-1 up by one. Positions above p — including the
// 0xF filler nibbles — are untouched.
func promote(word uint64, p uint, w uint64) uint64 {
	if p == 0 {
		return word
	}
	low := word & (uint64(1)<<(4*p) - 1)
	keep := word &^ (uint64(1)<<(4*(p+1)) - 1) // p+1 == 16 shifts to 0, keeping nothing
	return keep | low<<4 | w
}

func (c *Cache) index(a uint64) (set uint64, tag uint64) {
	blk := a >> addr.BlockShift
	return blk & c.setMask, blk >> c.setShift
}

// Probe reports whether the block containing a is present, without touching
// replacement state.
func (c *Cache) Probe(a uint64) bool {
	set, tag := c.index(a)
	base := set * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == tag {
			return true
		}
	}
	return false
}

// Access looks up the block containing a, allocating it on miss. It returns
// whether the access hit and, on an allocation that displaced a valid block,
// the victim.
func (c *Cache) Access(a uint64, write bool) (hit bool, victim Victim, evicted bool) {
	hit, victim, evicted, _ = c.access(a, write)
	return hit, victim, evicted
}

// access is Access that also returns the index of the line that now holds
// the block, so the hierarchy can keep per-line state beside the cache's.
func (c *Cache) access(a uint64, write bool) (hit bool, victim Victim, evicted bool, line uint64) {
	set, tag := c.index(a)
	if c.order != nil {
		return c.accessRank(set, tag, write)
	}
	return c.accessStamp(set, tag, write)
}

// accessRank is the rank-word access path (ways ≤ rankWays).
func (c *Cache) accessRank(set, tag uint64, write bool) (hit bool, victim Victim, evicted bool, line uint64) {
	base := set * uint64(c.ways)

	// MRU probe: the way at rank position 0 needs no recency update at all.
	if i := base + c.order[set]&0xF; c.tags[i] == tag {
		if write {
			c.dirty[i] = true
		}
		c.hits++
		return true, Victim{}, false, i
	}
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)
		if c.tags[i] == tag {
			if write {
				c.dirty[i] = true
			}
			word := c.order[set]
			c.order[set] = promote(word, findPos(word, uint64(w)), uint64(w))
			c.hits++
			return true, Victim{}, false, i
		}
	}

	// Miss: the victim is the way at the LRU position — one nibble
	// extraction where the stamp representation scans the whole set.
	c.misses++
	word := c.order[set]
	vw := (word >> (4 * uint(c.ways-1))) & 0xF
	lruIdx := base + vw
	if c.tags[lruIdx] != invalidTag {
		victim = Victim{Addr: c.reconstruct(lruIdx, c.tags[lruIdx]), Dirty: c.dirty[lruIdx]}
		evicted = true
	}
	c.tags[lruIdx] = tag
	c.dirty[lruIdx] = write
	c.order[set] = promote(word, uint(c.ways-1), vw)
	return false, victim, evicted, lruIdx
}

// accessStamp is the per-way stamp access path (ways > rankWays).
func (c *Cache) accessStamp(set, tag uint64, write bool) (hit bool, victim Victim, evicted bool, line uint64) {
	base := set * uint64(c.ways)
	c.tick++
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)
		if c.tags[i] == tag {
			c.used[i] = c.tick
			if write {
				c.dirty[i] = true
			}
			c.hits++
			return true, Victim{}, false, i
		}
	}

	// Miss: a second scan picks the LRU way (empty ways carry stamp 0 and
	// lose every comparison, so they fill first; ties go to the lowest way).
	c.misses++
	lruIdx := base
	lruStamp := c.used[base]
	for w := 1; w < c.ways; w++ {
		i := base + uint64(w)
		if c.used[i] < lruStamp {
			lruStamp = c.used[i]
			lruIdx = i
		}
	}
	if c.tags[lruIdx] != invalidTag {
		victim = Victim{Addr: c.reconstruct(lruIdx, c.tags[lruIdx]), Dirty: c.dirty[lruIdx]}
		evicted = true
	}
	c.tags[lruIdx] = tag
	c.dirty[lruIdx] = write
	c.used[lruIdx] = c.tick
	return false, victim, evicted, lruIdx
}

// reconstruct rebuilds a block address from a line index and tag.
func (c *Cache) reconstruct(lineIdx, tag uint64) uint64 {
	set := lineIdx / uint64(c.ways)
	return (tag<<c.setShift | set) << addr.BlockShift
}

// Invalidate removes the block containing a if present, returning whether it
// was present and dirty (the caller must write it back if so — needed for
// inclusive back-invalidation).
func (c *Cache) Invalidate(a uint64) (present, dirty bool) {
	set, tag := c.index(a)
	base := set * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)
		if c.tags[i] == tag {
			present, dirty = true, c.dirty[i]
			c.tags[i] = invalidTag
			c.dirty[i] = false
			if c.order != nil {
				c.demote(set, base, w)
			} else {
				c.used[i] = 0
			}
			return present, dirty
		}
	}
	return false, false
}

// demote re-files the just-invalidated way w among the set's empty ways.
// The stamp scan picks empty ways lowest-index-first before any valid way,
// so the order word keeps all empty ways in a tail block sorted by way
// index: w lands below empties with smaller indices and above everything
// else. c.tags[base+w] is already invalid when this runs.
func (c *Cache) demote(set, base uint64, w int) {
	word := c.order[set]
	p := findPos(word, uint64(w))
	q := uint(c.ways - 1)
	for e := 0; e < w; e++ {
		if c.tags[base+uint64(e)] == invalidTag {
			q--
		}
	}
	if p == q {
		return
	}
	// Shift positions p+1..q down one place and park w at position q.
	segMask := (uint64(1)<<(4*(q+1)) - 1) &^ (uint64(1)<<(4*(p+1)) - 1)
	seg := (word & segMask) >> 4
	high := word &^ (uint64(1)<<(4*(q+1)) - 1)
	low := word & (uint64(1)<<(4*p) - 1)
	c.order[set] = high | uint64(w)<<(4*q) | seg | low
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// resetStats zeroes the hit and miss counters; contents and recency stay.
func (c *Cache) resetStats() { c.hits, c.misses = 0, 0 }

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
