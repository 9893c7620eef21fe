package tlb

import "deact/internal/arena"

// MMU bundles a core's two TLB levels and its PTW cache, mirroring the
// Samba MMU configuration of Table II (L1: 32 entries, L2: 256 entries,
// PTW cache: 32 entries).
type MMU struct {
	L1  *TLB
	L2  *TLB
	PTW *PTWCache
}

// MMUConfig sizes an MMU.
type MMUConfig struct {
	L1Entries  int
	L1Ways     int
	L2Entries  int
	L2Ways     int
	PTWEntries int
}

// Validate checks both TLB geometries with the rule New applies.
func (c MMUConfig) Validate() error {
	if err := geometry("l1", c.L1Entries, c.L1Ways); err != nil {
		return err
	}
	return geometry("l2", c.L2Entries, c.L2Ways)
}

// NewMMU builds an MMU.
func NewMMU(cfg MMUConfig) (*MMU, error) {
	return NewMMUInArena(nil, cfg)
}

// NewMMUInArena is NewMMU drawing the MMU, both TLBs and the PTW cache
// from a. A nil arena allocates normally.
func NewMMUInArena(a *arena.Arena, cfg MMUConfig) (*MMU, error) {
	l1, err := NewInArena(a, "l1", cfg.L1Entries, cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := NewInArena(a, "l2", cfg.L2Entries, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	m := arena.Alloc[MMU](a, "tlb.MMU")
	m.L1, m.L2, m.PTW = l1, l2, NewPTWCacheInArena(a, cfg.PTWEntries)
	return m, nil
}

// Recycle returns the MMU, both TLBs and the PTW cache to a for the next
// run's construction. The MMU must not be used afterwards.
func (m *MMU) Recycle(a *arena.Arena) {
	m.L1.Recycle(a)
	m.L2.Recycle(a)
	m.PTW.Recycle(a)
	arena.Free(a, "tlb.MMU", m)
}

// LookupLevel identifies which TLB level served a translation.
type LookupLevel int

// Lookup outcomes.
const (
	MissBoth LookupLevel = iota
	HitL1
	HitL2
)

// Lookup translates a page number through the TLB hierarchy. An L2 hit is
// promoted into L1.
func (m *MMU) Lookup(key uint64) (value uint64, level LookupLevel) {
	if v, ok := m.L1.Lookup(key); ok {
		return v, HitL1
	}
	if v, ok := m.L2.Lookup(key); ok {
		m.L1.Insert(key, v)
		return v, HitL2
	}
	return 0, MissBoth
}

// Insert installs a completed translation in both levels.
func (m *MMU) Insert(key, value uint64) {
	m.L1.Insert(key, value)
	m.L2.Insert(key, value)
}

// Invalidate shoots down one page from both levels.
func (m *MMU) Invalidate(key uint64) {
	m.L1.Invalidate(key)
	m.L2.Invalidate(key)
}

// Flush empties both TLBs and the PTW cache (job migration, §VI).
func (m *MMU) Flush() {
	m.L1.Flush()
	m.L2.Flush()
	m.PTW.Flush()
}
