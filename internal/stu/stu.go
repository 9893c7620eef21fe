// Package stu implements the System Translation Unit — the per-node,
// off-the-node hardware at the fabric edge (similar in spirit to the Gen-Z
// ZMMU) that enforces system-level access control on every FAM access and,
// on translation misses, walks the node's FAM page table (Figures 6–8).
//
// The STU cache has three organizations:
//
//   - I-FAM: each way holds {node-page tag, FAM page, ACM} — translation
//     and access control coupled (Figure 8a).
//   - DeACT-W: translation moves to the node's local DRAM, freeing 52 bits
//     per way; the way holds the ACM of 64/ACMBits *contiguous* FAM pages
//     (Figure 8b).
//   - DeACT-N: the way splits into sub-ways with truncated 44-bit tags,
//     each an independent {FAM page tag, ACM} pair, doubling (or tripling,
//     for narrow ACM) reach for randomly placed pages (Figure 8c).
//
// The STU cache is a tlb.TLB in every organization: I-FAM maps node pages
// to FAM pages, while DeACT-W and DeACT-N only record which ACM tags are
// resident (the policy decision always reads the authoritative acm.Store).
// FAM-table walks reuse the node MMU's tlb.Walker and PTW cache; the STU's
// walk port charges each step as a FAM read and faults to the broker.
//
// The STU sits on the per-FAM-access hot path of every scheme but E-FAM:
// lookups, ACM checks and FAM-table walks are array-backed and
// allocation-free in steady state, the port is a sim.Server calendar
// bound to the engine clock, and all behaviour is deterministic for a
// fixed seed.
package stu

import (
	"fmt"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/arena"
	"deact/internal/pagetable"
	"deact/internal/sim"
	"deact/internal/tlb"
)

// Organization selects the STU cache layout (Figure 8).
type Organization int

// STU cache organizations.
const (
	OrgIFAM Organization = iota
	OrgDeACTW
	OrgDeACTN
)

// String implements fmt.Stringer.
func (o Organization) String() string {
	switch o {
	case OrgIFAM:
		return "I-FAM"
	case OrgDeACTW:
		return "DeACT-W"
	case OrgDeACTN:
		return "DeACT-N"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Config sizes an STU.
type Config struct {
	// Entries is the total entry count of the STU cache (1024 in Table II;
	// Figure 13 sweeps 256–4096).
	Entries int
	// Ways is the associativity (8 in Table II; §V-D1 sweeps it).
	Ways int
	// Org selects the cache layout.
	Org Organization
	// ACMBits is the per-page metadata width (8/16/32; Figure 14).
	ACMBits uint
	// PairsPerWay overrides the number of (tag, ACM) pairs per way in
	// DeACT-N (Figure 14 explores 1–3). Zero selects the width's natural
	// value: 2 for 8- and 16-bit ACM, 1 for 32-bit.
	PairsPerWay int
	// PTWCacheEntries sizes the FAM page-table-walk cache (32, after [8]).
	PTWCacheEntries int
	// LookupTime is the STU cache lookup/occupancy time per request.
	LookupTime sim.Time
	// TrustReads enables the §III-A optional optimization for encrypted
	// memories: with per-node encryption keys, reads by the wrong node
	// yield ciphertext, so read access control can be skipped entirely —
	// only writes are vetted. Off by default (plaintext FAM).
	TrustReads bool
}

// Validate checks the configuration. The cache indexes sets by mask, so
// the set count Entries/Ways must be a power of two.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0:
		return fmt.Errorf("stu: bad cache geometry entries=%d ways=%d", c.Entries, c.Ways)
	case (c.Entries/c.Ways)&(c.Entries/c.Ways-1) != 0:
		return fmt.Errorf("stu: set count %d (entries=%d ways=%d) not a power of two", c.Entries/c.Ways, c.Entries, c.Ways)
	case c.ACMBits != 8 && c.ACMBits != 16 && c.ACMBits != 32:
		return fmt.Errorf("stu: ACMBits %d must be 8, 16 or 32", c.ACMBits)
	case c.PairsPerWay < 0 || c.PairsPerWay > 3:
		return fmt.Errorf("stu: PairsPerWay %d out of range [0,3]", c.PairsPerWay)
	}
	return nil
}

// pagesPerWay returns how many contiguous pages' ACM one DeACT-W way holds
// (§V-D2: 8 for 8-bit, 4 for 16-bit, 2 for 32-bit metadata).
func (c Config) pagesPerWay() uint64 {
	switch c.ACMBits {
	case 8:
		return 8
	case 32:
		return 2
	default:
		return 4
	}
}

// pairsPerWay returns the DeACT-N sub-way count.
func (c Config) pairsPerWay() int {
	if c.PairsPerWay != 0 {
		return c.PairsPerWay
	}
	if c.ACMBits == 32 {
		return 1
	}
	return 2
}

// FAMAccessFunc performs one 64B access to the FAM device across the fabric
// and returns its completion time. The STU uses it for page-table, ACM and
// bitmap traffic — all of which count as address-translation requests at
// the FAM (Figures 4 and 11).
type FAMAccessFunc func(now sim.Time, a addr.FAddr, write bool) sim.Time

// Stats aggregates STU activity.
type Stats struct {
	TranslationHits   uint64 // I-FAM STU cache hits (Figure 10)
	TranslationMisses uint64
	ACMHits           uint64 // metadata found in the STU cache (Figure 9)
	ACMMisses         uint64
	ACMFetches        uint64 // 64B metadata blocks read from FAM
	BitmapFetches     uint64 // shared-page bitmap blocks read from FAM
	PTWSteps          uint64 // FAM page-table entries read from FAM
	Walks             uint64
	Denied            uint64
	BrokerFaults      uint64 // walks that needed a fresh broker allocation
	TrustedReads      uint64 // reads passed without ACM checks (TrustReads)
}

// STU is one node's system translation unit.
type STU struct {
	cfg     Config
	nodeID  uint16
	layout  addr.Layout
	meta    *acm.Store
	famRead FAMAccessFunc
	fault   func(np addr.NPPage) (addr.FPage, error) // broker allocation callback

	port sim.Server
	// pooled is the arena buffer the port's calendar came from; the port
	// is copied out of it and back, so the hot path books a field of the
	// STU itself.
	pooled []sim.Server

	// cache is the STU cache. I-FAM keys it by node page and stores the
	// FAM page; DeACT-W and DeACT-N key it by acmTag and store nothing.
	cache  *tlb.TLB
	ptw    *tlb.PTWCache
	walker tlb.Walker // over the node's FAM page table

	stats Stats
}

// New builds an STU for the given node.
//
// table is the node's FAM page table (owned by the broker), meta the shared
// metadata store, fam the fabric+FAM access path, and fault the broker
// allocation service for unmapped node pages (may be nil if the OS
// pre-installs mappings on first touch).
func New(cfg Config, nodeID uint16, layout addr.Layout, meta *acm.Store,
	table *pagetable.Table, fam FAMAccessFunc,
	fault func(np addr.NPPage) (addr.FPage, error)) (*STU, error) {
	return NewInArena(nil, cfg, nodeID, layout, meta, table, fam, fault)
}

// NewInArena is New drawing the STU, its cache, PTW cache, walk buffer and
// port calendar from a. A nil arena allocates normally.
func NewInArena(a *arena.Arena, cfg Config, nodeID uint16, layout addr.Layout, meta *acm.Store,
	table *pagetable.Table, fam FAMAccessFunc,
	fault func(np addr.NPPage) (addr.FPage, error)) (*STU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if meta == nil || table == nil || fam == nil {
		return nil, fmt.Errorf("stu: meta, table and fam are required")
	}
	entries, ways := cfg.Entries, cfg.Ways
	switch cfg.Org {
	case OrgIFAM, OrgDeACTW:
	case OrgDeACTN:
		// Each way splits into independent (tag, ACM) sub-ways.
		entries, ways = entries*cfg.pairsPerWay(), ways*cfg.pairsPerWay()
	default:
		return nil, fmt.Errorf("stu: unknown organization %v", cfg.Org)
	}
	cache, err := tlb.NewInArena(a, "stu", entries, ways)
	if err != nil {
		return nil, err
	}
	s := arena.Alloc[STU](a, "stu.STU")
	s.cfg = cfg
	s.nodeID = nodeID
	s.layout = layout
	s.meta = meta
	s.famRead = fam
	s.fault = fault
	s.cache = cache
	s.ptw = tlb.NewPTWCacheInArena(a, cfg.PTWCacheEntries)
	s.walker = tlb.NewWalker(a, table)
	s.pooled = sim.NewServers(a, "stu.port", 1)
	s.port = s.pooled[0]
	return s, nil
}

// Recycle returns the STU, its cache, PTW cache, walk buffer and port
// calendar to a for the next run's construction. The STU must not be used
// afterwards.
func (s *STU) Recycle(a *arena.Arena) {
	s.cache.Recycle(a)
	s.ptw.Recycle(a)
	s.walker.Recycle(a)
	s.pooled[0] = s.port
	sim.RecycleServers(a, "stu.port", s.pooled)
	arena.Free(a, "stu.STU", s)
}

// Stats returns a copy of the accumulated counters.
func (s *STU) Stats() Stats { return s.stats }

// ResetStats zeroes the counters; the cache contents stay.
func (s *STU) ResetStats() { s.stats = Stats{} }

// Bind attaches the engine clock to the STU port so its reservation
// calendar retires bookings entirely in the past (see sim.Clock).
func (s *STU) Bind(c sim.Clock) { s.port.Bind(c) }

// acmTag is the DeACT cache key covering fp's ACM: DeACT-W's group of
// pagesPerWay contiguous pages, or DeACT-N's truncated 44-bit FAM page tag
// (Figure 8c; exact for ≤44-bit page numbers, matching the paper's
// observation that 44 bits cover any realistic node).
func (s *STU) acmTag(fp addr.FPage) uint64 {
	if s.cfg.Org == OrgDeACTW {
		return uint64(fp) / s.cfg.pagesPerWay()
	}
	return uint64(fp) & ((1 << 44) - 1)
}

// verify runs the access-control decision for fam page fp, charging ACM
// cache lookups and FAM metadata traffic as needed. Returns the completion
// time and the decision.
func (s *STU) verify(now sim.Time, fp addr.FPage, want acm.Perm) (sim.Time, acm.Decision) {
	_, t := s.port.Acquire(now, s.cfg.LookupTime)

	if s.cfg.TrustReads && want == acm.PermR {
		// Encrypted-memory deployment: a foreign reader only gets
		// ciphertext, so the read sails through with zero metadata traffic.
		s.stats.TrustedReads++
		return t, acm.Decision{Allowed: true}
	}

	if _, cached := s.cache.Lookup(s.acmTag(fp)); cached {
		s.stats.ACMHits++
	} else {
		s.stats.ACMMisses++
		// Fetch the 64B metadata block from FAM and fill the cache with
		// the coverage the organization provides.
		t = s.famRead(t, s.layout.ACMBlockAddr(fp), false)
		s.stats.ACMFetches++
		s.cache.Insert(s.acmTag(fp), 0)
	}

	return s.decide(t, fp, want)
}

// decide makes the policy decision once the ACM bits are on chip. It reads
// the authoritative store — the cache models where the bits came from
// (timing), and the broker invalidates cached copies on
// revocation/migration. A shared page also needs its bitmap block.
func (s *STU) decide(t sim.Time, fp addr.FPage, want acm.Perm) (sim.Time, acm.Decision) {
	d := s.meta.Check(fp, s.nodeID, want)
	if d.BitmapFetch {
		t = s.famRead(t, s.layout.BitmapBlockAddr(fp.Huge(), s.nodeID), false)
		s.stats.BitmapFetches++
	}
	if !d.Allowed {
		s.stats.Denied++
	}
	return t, d
}

// VerifyMapped handles a DeACT request that arrived with the V flag set:
// the node already supplied the FAM address; the STU only vets it. This is
// the fast path of Figure 6 (step 3). VerifyMapped and HandleUnmapped serve
// the DeACT organizations; I-FAM requests go through TranslateAndVerify.
func (s *STU) VerifyMapped(now sim.Time, fp addr.FPage, want acm.Perm) (sim.Time, acm.Decision) {
	return s.verify(now, fp, want)
}

// walk resolves npPage through the FAM page table, charging one FAM access
// per step not covered by the PTW cache. Faults fall back to the broker.
func (s *STU) walk(now sim.Time, npPage addr.NPPage) (sim.Time, addr.FPage, error) {
	s.stats.Walks++
	fp, t, err := s.walker.Walk(now, uint64(npPage), s.ptw, walkPort{s})
	switch err {
	case nil:
	case tlb.ErrFaultUnmapped:
		return t, 0, fmt.Errorf("stu(node %d): broker did not install mapping for %#x", s.nodeID, npPage)
	case tlb.ErrFaultMismatch:
		return t, 0, fmt.Errorf("stu(node %d): broker mapping mismatch for %#x", s.nodeID, npPage)
	default:
		return t, 0, err
	}
	return t, addr.FPage(fp), nil
}

// walkPort charges the STU's FAM page-table walks: every step is a FAM read
// across the fabric, and an unmapped node page is a broker allocation.
type walkPort struct{ s *STU }

func (p walkPort) ReadEntry(now sim.Time, entryAddr uint64) (sim.Time, error) {
	p.s.stats.PTWSteps++
	return p.s.famRead(now, addr.FAddr(entryAddr), false), nil
}

func (p walkPort) Fault(key uint64) (uint64, error) {
	s, npPage := p.s, addr.NPPage(key)
	if s.fault == nil {
		return 0, fmt.Errorf("stu(node %d): node page %#x has no FAM mapping", s.nodeID, npPage)
	}
	fp, err := s.fault(npPage)
	if err != nil {
		return 0, fmt.Errorf("stu(node %d): broker fault for node page %#x: %w", s.nodeID, npPage, err)
	}
	s.stats.BrokerFaults++
	return uint64(fp), nil
}

// HandleUnmapped serves a DeACT request with V=0: the node's FAM translator
// missed, so the STU walks the FAM page table on its behalf, verifies the
// access, and returns the mapping for the translator to cache (Figure 6,
// steps 4–5).
func (s *STU) HandleUnmapped(now sim.Time, npPage addr.NPPage, want acm.Perm) (done sim.Time, fp addr.FPage, d acm.Decision, err error) {
	_, t := s.port.Acquire(now, s.cfg.LookupTime)
	t, fp, err = s.walk(t, npPage)
	if err != nil {
		return t, 0, acm.Decision{}, err
	}
	t, d = s.verify(t, fp, want)
	return t, fp, d, nil
}

// TranslateAndVerify is the I-FAM request path: every FAM-zone access stops
// at the STU, which translates the node address and checks permissions in
// one coupled cache (Figure 2b).
func (s *STU) TranslateAndVerify(now sim.Time, npPage addr.NPPage, want acm.Perm) (done sim.Time, fp addr.FPage, d acm.Decision, err error) {
	if s.cfg.Org != OrgIFAM {
		return now, 0, acm.Decision{}, fmt.Errorf("stu: TranslateAndVerify requires the I-FAM organization, have %v", s.cfg.Org)
	}
	_, t := s.port.Acquire(now, s.cfg.LookupTime)
	if v, ok := s.cache.Lookup(uint64(npPage)); ok {
		fp = addr.FPage(v)
		s.stats.TranslationHits++
		s.stats.ACMHits++ // coupled entry: ACM rides along (Figure 9's I-FAM series)
	} else {
		s.stats.TranslationMisses++
		s.stats.ACMMisses++
		if t, fp, err = s.walk(t, npPage); err != nil {
			return t, 0, acm.Decision{}, err
		}
		// The coupled entry needs the metadata too: one ACM block fetch.
		t = s.famRead(t, s.layout.ACMBlockAddr(fp), false)
		s.stats.ACMFetches++
		s.cache.Insert(uint64(npPage), uint64(fp))
	}
	t, d = s.decide(t, fp, want)
	return t, fp, d, nil
}

// InvalidateACM drops cached metadata for a FAM page (migration, §VI).
func (s *STU) InvalidateACM(fp addr.FPage) {
	if s.cfg.Org != OrgIFAM {
		s.cache.Invalidate(s.acmTag(fp))
	}
}

// Flush empties all STU state (full shootdown).
func (s *STU) Flush() {
	s.cache.Flush()
	s.ptw.Flush()
}
