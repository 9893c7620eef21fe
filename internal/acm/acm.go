// Package acm implements the FAM access-control metadata of Figure 5: a
// per-4KB-page entry (owner node ID + R/W/E permissions) stored in a
// dedicated region at the top of the FAM pool, plus a 64K-bit sharing
// bitmap per 1GB region for pages shared by a subset of nodes.
//
// The package holds the *contents* of the metadata; the addresses of the
// blocks that timing models must fetch come from addr.Layout. The paper's
// bitmap stores one bit per node with the shared page's permissions encoded
// in the per-page metadata; we additionally keep a per-node permission so
// the "mixed access permissions for nodes sharing a page" case (§III-A) is
// enforceable. The timing is identical either way: one 64B bitmap-block
// fetch.
//
// The per-page Check sits on the per-FAM-access hot path of every scheme:
// entries live in dense per-1GB-region chunk slabs (no map on the lookup
// path, no allocation after a chunk materializes), and the slabs recycle
// through internal/arena across runs — zeroed on reuse, so a recycled
// store is indistinguishable from a fresh one.
package acm

import (
	"fmt"

	"deact/internal/addr"
	"deact/internal/arena"
)

// Perm is a permission set. The paper packs read/write/execute into two
// bits; we use the same two-bit encoding space.
type Perm uint8

// Permission values (two-bit encoding as in Figure 5).
const (
	PermNone Perm = iota // no access
	PermR                // read-only
	PermRW               // read + write
	PermRWX              // read + write + execute
)

// CanRead reports read permission.
func (p Perm) CanRead() bool { return p >= PermR }

// CanWrite reports write permission.
func (p Perm) CanWrite() bool { return p >= PermRW }

// CanExec reports execute permission.
func (p Perm) CanExec() bool { return p == PermRWX }

// String implements fmt.Stringer.
func (p Perm) String() string {
	switch p {
	case PermNone:
		return "----"
	case PermR:
		return "r---"
	case PermRW:
		return "rw--"
	case PermRWX:
		return "rwx-"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// Entry is the decoded per-page metadata.
type Entry struct {
	// Owner is the owning node ID, or the all-ones shared marker.
	Owner uint16
	// Perm is the access granted to the owner (or, for shared pages, the
	// default permission).
	Perm Perm
}

// SharedOwner returns the all-ones node-ID marker for a given ACM width
// (0x3FFF for 16-bit metadata: 14 ID bits; §III-A supports 16383 nodes).
// Widths whose ID field exceeds 16 bits saturate at 0xFFFF, since node IDs
// are uint16 throughout the simulator.
func SharedOwner(acmBits uint) uint16 {
	if acmBits-2 >= 16 {
		return 0xFFFF
	}
	return uint16(1<<(acmBits-2)) - 1
}

// MaxNodes returns the number of usable node IDs for an ACM width (the
// shared marker is reserved).
func MaxNodes(acmBits uint) int { return int(SharedOwner(acmBits)) }

// Encode packs an entry into its on-FAM representation.
func Encode(e Entry, acmBits uint) (uint32, error) {
	if e.Owner > SharedOwner(acmBits) {
		return 0, fmt.Errorf("acm: owner %d does not fit in %d-bit metadata", e.Owner, acmBits)
	}
	return uint32(e.Owner)<<2 | uint32(e.Perm&3), nil
}

// Decode unpacks an on-FAM entry.
func Decode(raw uint32, acmBits uint) Entry {
	return Entry{
		Owner: uint16(raw>>2) & SharedOwner(acmBits),
		Perm:  Perm(raw & 3),
	}
}

// slot is one stored per-page entry packed into 4 bytes: the owner in bits
// 0–15, the permission in bits 16–23 and a presence bit at 24, so a page
// explicitly set to the zero Entry is distinguishable from an unallocated
// page (the zero slot). Every Check reads one slot from a chunk too large
// for the host caches, and 4-byte slots make each 1GB region's chunk 1MB
// where an {Entry, bool} struct took 1.5MB.
type slot uint32

const slotPresent slot = 1 << 24

func packSlot(e Entry) slot { return slot(e.Owner) | slot(e.Perm)<<16 | slotPresent }

func (v slot) entry() Entry { return Entry{Owner: uint16(v), Perm: Perm(uint8(v >> 16))} }

// Store holds the metadata contents for one FAM pool.
//
// Per-page entries are stored in dense per-1GB-region chunks rather than a
// map: the ACM check sits on the per-FAM-access hot path of every scheme,
// and a chunk index + array load is both allocation-free and an order of
// magnitude cheaper than hashing. Chunks materialize on first write, so
// memory scales with the regions actually touched.
type Store struct {
	layout addr.Layout
	chunks [][]slot // indexed [page/PagesPerHuge][page%PagesPerHuge]
	// shared[huge][node] = permission granted to node in the 1GB region.
	shared map[uint64]map[uint16]Perm

	// a recycles chunk slabs across runs; chunks materialize mid-run (on
	// first metadata write into a region), so the store keeps the arena it
	// was built in. nil allocates normally.
	a *arena.Arena

	writes uint64
}

// NewStore builds an empty metadata store for the pool described by layout.
func NewStore(layout addr.Layout) *Store {
	return NewStoreInArena(nil, layout)
}

// NewStoreInArena is NewStore drawing the store, its region index, its
// shared-region map and the per-region chunk slabs — at 1MB per touched
// region, the single largest allocation a run makes — from a. A nil arena
// allocates normally.
func NewStoreInArena(a *arena.Arena, layout addr.Layout) *Store {
	regions := (layout.FAMSize + addr.HugeSize - 1) / addr.HugeSize
	s := arena.Alloc[Store](a, "acm.Store")
	s.layout = layout
	s.chunks = arena.Slice[[]slot](a, "acm.chunks", int(regions))
	s.shared = arena.Map[uint64, map[uint16]Perm](a, "acm.shared")
	s.a = a
	return s
}

// Recycle returns the store, its region index, its shared-region map and
// the materialized chunk slabs to a for the next run's construction. The
// store must not be used afterwards.
func (s *Store) Recycle(a *arena.Arena) {
	for i, c := range s.chunks {
		arena.Release(a, "acm.chunk", c)
		s.chunks[i] = nil
	}
	arena.Release(a, "acm.chunks", s.chunks)
	arena.ReleaseMap(a, "acm.shared", s.shared)
	arena.Free(a, "acm.Store", s)
}

// chunkFor returns the chunk holding p, materializing it if create is set.
func (s *Store) chunkFor(p addr.FPage, create bool) []slot {
	idx := p.Huge()
	for idx >= uint64(len(s.chunks)) {
		// Out-of-pool pages (tests use synthetic layouts) grow the index.
		if !create {
			return nil
		}
		s.chunks = append(s.chunks, nil)
	}
	c := s.chunks[idx]
	if c == nil && create {
		c = arena.Slice[slot](s.a, "acm.chunk", addr.PagesPerHuge)
		s.chunks[idx] = c
	}
	return c
}

// Set installs the metadata entry for page p.
func (s *Store) Set(p addr.FPage, e Entry) error {
	if _, err := Encode(e, s.layout.ACMBits); err != nil {
		return err
	}
	s.chunkFor(p, true)[uint64(p)%addr.PagesPerHuge] = packSlot(e)
	s.writes++
	return nil
}

// Clear removes the entry for p (page freed).
func (s *Store) Clear(p addr.FPage) {
	if c := s.chunkFor(p, false); c != nil {
		c[uint64(p)%addr.PagesPerHuge] = 0
	}
	s.writes++
}

// Entry returns the metadata for p; unallocated pages decode as
// {Owner:0, Perm:PermNone}, which denies everyone.
func (s *Store) Entry(p addr.FPage) Entry {
	if c := s.chunkFor(p, false); c != nil {
		return c[uint64(p)%addr.PagesPerHuge].entry()
	}
	return Entry{}
}

// Has reports whether p has an installed metadata entry.
func (s *Store) Has(p addr.FPage) bool {
	c := s.chunkFor(p, false)
	return c != nil && c[uint64(p)%addr.PagesPerHuge] != 0
}

// Entries calls yield for every page that has an installed entry, in
// ascending page order, until yield returns false. It reads only the
// materialized chunks. yield may Set the entry of the page it is handed,
// which rewrites it in place; any other mutation of the store during the
// iteration is not allowed.
func (s *Store) Entries(yield func(addr.FPage, Entry) bool) {
	for ci, c := range s.chunks {
		base := uint64(ci) * addr.PagesPerHuge
		for i, v := range c {
			if v != 0 && !yield(addr.FPage(base+uint64(i)), v.entry()) {
				return
			}
		}
	}
}

// MarkShared flags every 4KB sub-page of the 1GB region as shared (the
// paper sets all sub-page node-ID fields to the shared marker when a page
// becomes shared) with the given default permission.
func (s *Store) MarkShared(huge uint64, defaultPerm Perm) {
	marker := SharedOwner(s.layout.ACMBits)
	c := s.chunkFor(addr.FPage(huge*addr.PagesPerHuge), true)
	fill := packSlot(Entry{Owner: marker, Perm: defaultPerm})
	for i := range c {
		c[i] = fill
	}
	s.writes++
	if s.shared[huge] == nil {
		s.shared[huge] = map[uint16]Perm{}
	}
}

// Grant gives node the given permission in the shared 1GB region.
func (s *Store) Grant(huge uint64, node uint16, p Perm) {
	if s.shared[huge] == nil {
		s.shared[huge] = map[uint16]Perm{}
	}
	s.shared[huge][node] = p
	s.writes++
}

// Revoke removes node's access to the shared region.
func (s *Store) Revoke(huge uint64, node uint16) {
	delete(s.shared[huge], node)
	s.writes++
}

// SharedPerm returns the permission node holds in the region's bitmap.
func (s *Store) SharedPerm(huge uint64, node uint16) Perm {
	return s.shared[huge][node]
}

// IsSharedMarker reports whether e flags a shared page for this store's
// ACM width.
func (s *Store) IsSharedMarker(e Entry) bool {
	return e.Owner == SharedOwner(s.layout.ACMBits)
}

// Decision is the outcome of an access-control check, including how much
// metadata traffic the check required (the timing model charges a bitmap
// block fetch only when the page turned out to be shared, §III-A).
type Decision struct {
	Allowed      bool
	Shared       bool // the per-page entry carried the shared marker
	BitmapFetch  bool // the check had to read a bitmap block
	EntryPerm    Perm // effective permission found
	DeniedReason string
}

// Check vets an access by node to page p needing permission want. It is the
// pure policy function; the STU wraps it with caching and timing.
func (s *Store) Check(p addr.FPage, node uint16, want Perm) Decision {
	e := s.Entry(p)
	if s.IsSharedMarker(e) {
		perm := s.SharedPerm(p.Huge(), node)
		d := Decision{Shared: true, BitmapFetch: true, EntryPerm: perm}
		if !permits(perm, want) {
			d.DeniedReason = fmt.Sprintf("node %d holds %v on shared region %d, needs %v", node, perm, p.Huge(), want)
			return d
		}
		d.Allowed = true
		return d
	}
	d := Decision{EntryPerm: e.Perm}
	if e.Owner != node {
		d.DeniedReason = fmt.Sprintf("page %d owned by node %d, accessed by node %d", p, e.Owner, node)
		return d
	}
	if !permits(e.Perm, want) {
		d.DeniedReason = fmt.Sprintf("node %d holds %v on page %d, needs %v", node, e.Perm, p, want)
		return d
	}
	d.Allowed = true
	return d
}

func permits(have, want Perm) bool {
	switch want {
	case PermNone:
		return true
	case PermR:
		return have.CanRead()
	case PermRW:
		return have.CanWrite()
	case PermRWX:
		return have.CanExec()
	default:
		return false
	}
}

// Writes counts metadata mutations (used by migration-cost accounting).
func (s *Store) Writes() uint64 { return s.writes }

// Layout returns the pool layout the store was built for.
func (s *Store) Layout() addr.Layout { return s.layout }
