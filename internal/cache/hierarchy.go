package cache

import (
	"fmt"
	"math/bits"

	"deact/internal/arena"
)

// HitLevel identifies where in the hierarchy an access was served.
type HitLevel int

// Hit levels, in lookup order. Memory means the access missed all caches.
const (
	L1 HitLevel = iota + 1
	L2
	L3
	Memory
)

// String implements fmt.Stringer.
func (h HitLevel) String() string {
	switch h {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("HitLevel(%d)", int(h))
	}
}

// HierarchyConfig sizes the three levels (Table II defaults live in the
// core package).
type HierarchyConfig struct {
	Cores  int
	L1Size uint64
	L1Ways int
	L2Size uint64
	L2Ways int
	L3Size uint64
	L3Ways int
}

// MaxCores is the most cores one hierarchy serves: each L3 line records
// the cores that may hold it above in one byte.
const MaxCores = 8

// Validate checks the core count and every level's geometry with the rule
// New applies.
func (c HierarchyConfig) Validate() error {
	if c.Cores <= 0 || c.Cores > MaxCores {
		return fmt.Errorf("cache: cores %d out of [1, %d]", c.Cores, MaxCores)
	}
	if _, err := geometry("l1", c.L1Size, c.L1Ways); err != nil {
		return err
	}
	if _, err := geometry("l2", c.L2Size, c.L2Ways); err != nil {
		return err
	}
	_, err := geometry("l3", c.L3Size, c.L3Ways)
	return err
}

// Hierarchy is an inclusive three-level cache hierarchy: private L1 and L2
// per core, one shared L3. Inclusivity is enforced by back-invalidating L1
// and L2 when the L3 evicts a block.
//
// Back-invalidation visits only the cores that may hold the victim. Each L3
// line carries a core-presence mask: an L3 fill sets it to the filling core
// alone and every L3 access ORs in the accessing core. A core's L1 or L2
// only ever takes a block through its own L3 access or from its own L2, so
// the mask is a superset of the true holders; invalidating a cache without
// the block is a no-op, so skipping the other cores changes nothing.
type Hierarchy struct {
	l1, l2  []*Cache
	l3      *Cache
	present []uint8  // per L3 line: bit c set if core c may hold it above
	wbBuf   []uint64 // reused writeback scratch, returned by Access
}

// wbCap is the writeback scratch's capacity: an access evicts at most one
// L3 block, so it never grows.
const wbCap = 1

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	return NewHierarchyInArena(nil, cfg)
}

// NewHierarchyInArena is NewHierarchy drawing every cache's line arrays
// from a (nil allocates normally). Recycle returns them.
func NewHierarchyInArena(a *arena.Arena, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := arena.Alloc[Hierarchy](a, "cache.Hierarchy")
	h.l1 = arena.Slice[*Cache](a, "cache.l1", cfg.Cores)
	h.l2 = arena.Slice[*Cache](a, "cache.l2", cfg.Cores)
	h.wbBuf = arena.Slice[uint64](a, "cache.writebacks", wbCap)[:0]
	var err error
	for i := range h.l1 {
		if h.l1[i], err = NewInArena(a, fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways); err != nil {
			return nil, err
		}
		if h.l2[i], err = NewInArena(a, fmt.Sprintf("l2.%d", i), cfg.L2Size, cfg.L2Ways); err != nil {
			return nil, err
		}
	}
	h.l3, err = NewInArena(a, "l3", cfg.L3Size, cfg.L3Ways)
	if err != nil {
		return nil, err
	}
	h.present = arena.Slice[uint8](a, "cache.presence", len(h.l3.tags))
	return h, nil
}

// Recycle returns the hierarchy, every cache and their line arrays to a
// for the next run's construction. The hierarchy must not be used afterwards.
func (h *Hierarchy) Recycle(a *arena.Arena) {
	for i := range h.l1 {
		h.l1[i].recycle(a)
		h.l2[i].recycle(a)
	}
	h.l3.recycle(a)
	arena.Release(a, "cache.presence", h.present)
	arena.Release(a, "cache.l1", h.l1)
	arena.Release(a, "cache.l2", h.l2)
	arena.Release(a, "cache.writebacks", h.wbBuf)
	arena.Free(a, "cache.Hierarchy", h)
}

// Access performs a load or store by core on the physical block containing
// a. It returns the level that served the access and any dirty blocks that
// must be written back to memory as a result of evictions. The returned
// slice aliases an internal scratch buffer and is only valid until the next
// Access call; callers consume it immediately.
func (h *Hierarchy) Access(core int, a uint64, write bool) (HitLevel, []uint64) {
	writebacks := h.wbBuf[:0]
	l1, l2 := h.l1[core], h.l2[core]

	if hit, _, _ := l1.Access(a, write); hit {
		return L1, nil
	}
	// L1 victims spill into L2 conceptually; we model only dirty traffic and
	// only track blocks leaving the chip (L3 evictions), so L1/L2 victims
	// are dropped unless dirty-and-not-elsewhere, which inclusivity makes
	// impossible: a dirty L1 victim is still present in L3.
	if hit, _, _ := l2.Access(a, write); hit {
		return L2, nil
	}
	hit, victim, evicted, line := h.l3.access(a, write)
	bit := uint8(1) << uint(core)
	if hit {
		h.present[line] |= bit
		return L3, writebacks
	}
	holders := h.present[line] // the victim's, before the fill resets it
	h.present[line] = bit
	if evicted {
		// Inclusive hierarchy: the departing L3 block must vanish from all
		// upper levels; any dirty upper copy joins the writeback.
		dirty := victim.Dirty
		for ; holders != 0; holders &= holders - 1 {
			i := bits.TrailingZeros8(holders)
			if _, d := h.l1[i].Invalidate(victim.Addr); d {
				dirty = true
			}
			if _, d := h.l2[i].Invalidate(victim.Addr); d {
				dirty = true
			}
		}
		if dirty {
			writebacks = append(writebacks, victim.Addr)
			// Store the (possibly regrown) scratch only when it was
			// touched: the unconditional slice store was a measurable
			// write-barrier cost on the miss path.
			h.wbBuf = writebacks
		}
	}
	return Memory, writebacks
}

// ResetStats zeroes every level's hit and miss counters; contents and
// recency state stay.
func (h *Hierarchy) ResetStats() {
	for i := range h.l1 {
		h.l1[i].resetStats()
		h.l2[i].resetStats()
	}
	h.l3.resetStats()
}

// L1Cache returns core's private L1 (for stats and tests).
func (h *Hierarchy) L1Cache(core int) *Cache { return h.l1[core] }

// L3Cache returns the shared L3.
func (h *Hierarchy) L3Cache() *Cache { return h.l3 }

// Misses returns the number of accesses that went to memory.
func (h *Hierarchy) Misses() uint64 { return h.l3.Misses() }
