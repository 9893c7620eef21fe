// Package tlb models the node's hardware memory-management unit in the
// spirit of SST's Samba module (§IV): per-core two-level TLBs (32/256
// entries, Table II), a page-table walker, and a small page-table-walk (PTW)
// cache that holds upper-level entries to shorten walks (the [8]
// optimization the paper folds into its baselines).
//
// The STU reuses all three: a TLB is its set-associative translation/ACM
// cache, and a Walker with its own PTW cache walks the FAM page table. A
// WalkPort says what a walk costs: the node charges entry reads through its
// cache hierarchy and faults to the OS, the STU charges FAM reads and faults
// to the broker.
//
// Invariants: lookups, fills and walks allocate nothing in steady state
// (dense mask-indexed arrays, no maps, one reused walk buffer), and
// replacement is a deterministic function of the access history — both
// load-bearing for the simulator's byte-identical-output guarantee. The
// TLB entry arrays recycle through internal/arena across runs.
package tlb

import (
	"fmt"

	"deact/internal/arena"
)

// TLB is a set-associative translation lookaside buffer mapping page
// numbers to page numbers with LRU replacement.
type TLB struct {
	setMask uint64 // sets-1; the set count is a power of two
	ways    int
	tags    []uint64 // emptyTag for an empty way
	values  []uint64
	stamps  []uint64 // LRU stamps; 0 for an empty way (valid ones are ≥ 1)
	tick    uint64
	hits    uint64
	misses  uint64

	// The last miss, for the fill that usually follows it: Lookup's miss
	// scan already visits every way, so it records the victim Insert
	// would pick. While tick still equals missTick no tag or stamp has
	// changed (Invalidate and Flush, which do not tick, clear missTick),
	// so an Insert of missKey writes missWay without a rescan.
	missKey  uint64
	missWay  uint64
	missTick uint64 // 0 = no recorded miss
}

// emptyTag marks an empty way, so a probe compares tags only. Keys are page
// numbers and ACM tags, far below 2^64-1 for any address space this
// simulator models.
const emptyTag = ^uint64(0)

// geometry is the shape rule New enforces: entries must be a power-of-two
// multiple of ways. Set indexing is a mask, so the set count must be a
// power of two. MMUConfig.Validate applies the same rule.
func geometry(name string, entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("tlb %s: bad geometry entries=%d ways=%d", name, entries, ways)
	}
	if sets := entries / ways; sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", name, sets)
	}
	return nil
}

// New builds a TLB with the given total entry count and associativity;
// name only labels errors. Entries must be a power-of-two multiple of ways.
func New(name string, entries, ways int) (*TLB, error) {
	return NewInArena(nil, name, entries, ways)
}

// NewInArena is New drawing the TLB and its entry arrays from a, so a TLB
// of a recycled geometry allocates nothing. A nil arena allocates
// normally.
func NewInArena(a *arena.Arena, name string, entries, ways int) (*TLB, error) {
	if err := geometry(name, entries, ways); err != nil {
		return nil, err
	}
	t := arena.Alloc[TLB](a, "tlb.TLB")
	t.setMask = uint64(entries/ways) - 1
	t.ways = ways
	t.tags = arena.Slice[uint64](a, "tlb.tags", entries)
	t.values = arena.Slice[uint64](a, "tlb.values", entries)
	t.stamps = arena.Slice[uint64](a, "tlb.stamps", entries)
	for i := range t.tags {
		t.tags[i] = emptyTag
	}
	return t, nil
}

// Recycle returns the TLB and its entry arrays to a for the next run's
// construction. The TLB must not be used afterwards.
func (t *TLB) Recycle(a *arena.Arena) {
	arena.Release(a, "tlb.tags", t.tags)
	arena.Release(a, "tlb.values", t.values)
	arena.Release(a, "tlb.stamps", t.stamps)
	arena.Free(a, "tlb.TLB", t)
}

func (t *TLB) setBase(key uint64) uint64 { return (key & t.setMask) * uint64(t.ways) }

// Lookup searches for key, updating LRU state on hit. A miss records the
// way a following Insert of key would fill.
func (t *TLB) Lookup(key uint64) (value uint64, ok bool) {
	base := t.setBase(key)
	t.tick++
	victim := base
	victimStamp := ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.tags[i] == key {
			t.stamps[i] = t.tick
			t.hits++
			return t.values[i], true
		}
		if stamp := t.stamps[i]; stamp < victimStamp {
			victimStamp, victim = stamp, i
		}
	}
	t.misses++
	t.missKey, t.missWay, t.missTick = key, victim, t.tick
	return 0, false
}

// Insert installs key → value, evicting the set's LRU entry if needed.
func (t *TLB) Insert(key, value uint64) {
	if t.missTick == t.tick && t.missKey == key && t.missTick != 0 {
		// Nothing changed since key missed: its recorded victim stands.
		t.tick++
		i := t.missWay
		t.tags[i] = key
		t.values[i] = value
		t.stamps[i] = t.tick
		return
	}
	base := t.setBase(key)
	t.tick++
	victim := base
	victimStamp := ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.tags[i] == key {
			t.values[i] = value
			t.stamps[i] = t.tick
			return
		}
		// One load into a local lets the compiler select the victim with
		// conditional moves; the stamps are unordered, so a branch here
		// mispredicts.
		if stamp := t.stamps[i]; stamp < victimStamp {
			victimStamp, victim = stamp, i
		}
	}
	t.tags[victim] = key
	t.values[victim] = value
	t.stamps[victim] = t.tick
}

// Invalidate removes key if present (a single-page shootdown).
func (t *TLB) Invalidate(key uint64) bool {
	base := t.setBase(key)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.tags[i] == key {
			t.tags[i] = emptyTag
			t.stamps[i] = 0
			t.missTick = 0
			return true
		}
	}
	return false
}

// Flush empties the TLB (full shootdown, e.g. on job migration).
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = emptyTag
	}
	clear(t.stamps)
	t.missTick = 0
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// HitRate returns hits/(hits+misses), 0 when unused.
func (t *TLB) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
