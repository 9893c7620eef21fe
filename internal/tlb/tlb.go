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
	tags    []uint64
	values  []uint64
	valid   []bool
	stamps  []uint64
	tick    uint64
	hits    uint64
	misses  uint64
}

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

// NewInArena is New drawing the entry arrays from a, so a TLB of a
// recycled geometry allocates only its header. A nil arena allocates
// normally.
func NewInArena(a *arena.Arena, name string, entries, ways int) (*TLB, error) {
	if err := geometry(name, entries, ways); err != nil {
		return nil, err
	}
	return &TLB{
		setMask: uint64(entries/ways) - 1,
		ways:    ways,
		tags:    arena.Slice[uint64](a, "tlb.tags", entries),
		values:  arena.Slice[uint64](a, "tlb.values", entries),
		valid:   arena.Slice[bool](a, "tlb.valid", entries),
		stamps:  arena.Slice[uint64](a, "tlb.stamps", entries),
	}, nil
}

// Recycle returns the entry arrays to a for the next run's construction.
// The TLB must not be used afterwards.
func (t *TLB) Recycle(a *arena.Arena) {
	arena.Release(a, "tlb.tags", t.tags)
	arena.Release(a, "tlb.values", t.values)
	arena.Release(a, "tlb.valid", t.valid)
	arena.Release(a, "tlb.stamps", t.stamps)
	t.tags, t.values, t.valid, t.stamps = nil, nil, nil, nil
}

func (t *TLB) setBase(key uint64) uint64 { return (key & t.setMask) * uint64(t.ways) }

// Lookup searches for key, updating LRU state on hit.
func (t *TLB) Lookup(key uint64) (value uint64, ok bool) {
	base := t.setBase(key)
	t.tick++
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.stamps[i] = t.tick
			t.hits++
			return t.values[i], true
		}
	}
	t.misses++
	return 0, false
}

// Insert installs key → value, evicting the set's LRU entry if needed.
func (t *TLB) Insert(key, value uint64) {
	base := t.setBase(key)
	t.tick++
	victim := base
	victimStamp := ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.values[i] = value
			t.stamps[i] = t.tick
			return
		}
		stamp := t.stamps[i]
		if !t.valid[i] {
			stamp = 0
		}
		if stamp < victimStamp {
			victimStamp = stamp
			victim = i
		}
	}
	t.tags[victim] = key
	t.values[victim] = value
	t.valid[victim] = true
	t.stamps[victim] = t.tick
}

// Invalidate removes key if present (a single-page shootdown).
func (t *TLB) Invalidate(key uint64) bool {
	base := t.setBase(key)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.valid[i] = false
			return true
		}
	}
	return false
}

// Flush empties the TLB (full shootdown, e.g. on job migration).
func (t *TLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
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
