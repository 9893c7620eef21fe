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
// entries live in one page-keyed open-addressing table (no Go map on the
// lookup path, no allocation once the table has grown), sized by the pages
// a run owns rather than by the pool, and the table recycles through
// internal/arena across runs — cleared on reuse, so a recycled store is
// indistinguishable from a fresh one.
package acm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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
// page (the zero slot).
type slot uint32

const slotPresent slot = 1 << 24

func packSlot(e Entry) slot { return slot(e.Owner) | slot(e.Perm)<<16 | slotPresent }

func (v slot) entry() Entry { return Entry{Owner: uint16(v), Perm: Perm(uint8(v >> 16))} }

// cell is one page's place in the store's table: the page number + 1 (so
// the zero cell is empty and a cleared table holds nothing) and its slot.
// addr.Layout.Validate bounds pool pages below addr.MaxPages, so the key
// fits 32 bits and a cell is 8 bytes.
type cell struct {
	key uint32
	v   slot
}

// minCells is the size of a fresh table. The table doubles before more
// than maxLoadNum/maxLoadDen of its cells fill, which keeps linear probes
// short.
const (
	minCells   = 1 << 10
	maxLoadNum = 3
	maxLoadDen = 4
)

// tableTag is the arena tag of the page table.
const tableTag = "acm.table"

// region is a carved 1GB region's fill: the slot every sub-page without a
// cell of its own holds.
type region struct {
	huge uint64
	fill slot
}

// Store holds the metadata contents for one FAM pool.
//
// Per-page entries live in one open-addressing table keyed by page
// number: linear probing over a power-of-two array of 8-byte cells, found
// by the top bits of a multiplicative hash. Host memory therefore follows
// the pages a run owns, not the pool's size. A filled cell is never
// emptied — Clear stores the zero slot in place — so the table needs no
// tombstones and a probe stops at the first empty cell. A region carved
// for sharing is one fill slot, read only for its pages that have no cell.
type Store struct {
	layout addr.Layout
	cells  []cell // len is a power of two, at least minCells
	shift  uint   // 64 − log2(len(cells)): the hash's top bits index the table
	used   int    // filled cells
	// fills lists the carved regions in ascending order; nil until the
	// first MarkShared, so the hot path skips it in unshared runs.
	fills []region
	// shared[huge][node] = permission granted to node in the 1GB region.
	shared map[uint64]map[uint16]Perm

	// a supplies the doubled table when the table grows mid-run. nil
	// allocates normally.
	a *arena.Arena

	writes uint64
}

// NewStore builds an empty metadata store for the pool described by layout.
func NewStore(layout addr.Layout) *Store {
	return NewStoreInArena(nil, layout)
}

// NewStoreInArena is NewStore drawing the store, its page table and its
// shared-region map from a. A recycled table comes back at its full
// capacity, so a warm run of the same shape never grows it. A nil arena
// allocates normally.
func NewStoreInArena(a *arena.Arena, layout addr.Layout) *Store {
	s := arena.Alloc[Store](a, "acm.Store")
	s.layout = layout
	t := arena.Slice[cell](a, tableTag, 0) // the largest recycled table
	if cap(t) < minCells {
		t = arena.Slice[cell](a, tableTag, minCells)
	} else {
		t = t[:1<<(bits.Len(uint(cap(t)))-1)]
		clear(t)
	}
	s.setTable(t)
	s.shared = arena.Map[uint64, map[uint16]Perm](a, "acm.shared")
	s.a = a
	return s
}

// Recycle returns the store, its page table and its shared-region map to
// a for the next run's construction. The store must not be used
// afterwards.
func (s *Store) Recycle(a *arena.Arena) {
	arena.Release(a, tableTag, s.cells)
	arena.ReleaseMap(a, "acm.shared", s.shared)
	arena.Free(a, "acm.Store", s)
}

// setTable installs an empty table t.
func (s *Store) setTable(t []cell) {
	s.cells = t
	s.shift = uint(64 - bits.TrailingZeros(uint(len(t))))
	s.used = 0
}

// home is the first cell a key probes.
func (s *Store) home(key uint32) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> s.shift)
}

// find returns the index of p's cell, or -1 if p has none.
func (s *Store) find(p addr.FPage) int {
	if uint64(p) >= addr.MaxPages {
		return -1
	}
	key := uint32(p) + 1
	mask := len(s.cells) - 1
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.cells[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// put stores v in p's cell, adding the cell if p has none. p must be below
// addr.MaxPages.
func (s *Store) put(p addr.FPage, v slot) {
	if i := s.find(p); i >= 0 {
		s.cells[i].v = v
		return
	}
	if (s.used+1)*maxLoadDen > len(s.cells)*maxLoadNum {
		old := s.cells
		s.setTable(arena.Slice[cell](s.a, tableTag, 2*len(old)))
		for _, c := range old {
			if c.key != 0 {
				s.insert(c)
			}
		}
	}
	s.insert(cell{key: uint32(p) + 1, v: v})
}

// insert places c, whose key the table does not hold, in the first empty
// cell of its probe sequence.
func (s *Store) insert(c cell) {
	mask := len(s.cells) - 1
	i := s.home(c.key)
	for s.cells[i].key != 0 {
		i = (i + 1) & mask
	}
	s.cells[i] = c
	s.used++
}

// fillOf returns the fill of the carved region huge, or the zero slot if
// the region is not carved.
func (s *Store) fillOf(huge uint64) slot {
	for _, r := range s.fills {
		if r.huge == huge {
			return r.fill
		}
	}
	return 0
}

// slotOf returns the slot page p holds: its cell's, else its carved
// region's fill, else the zero slot. Pages at or beyond addr.MaxPages hold
// the zero slot.
func (s *Store) slotOf(p addr.FPage) slot {
	if i := s.find(p); i >= 0 {
		return s.cells[i].v
	}
	if s.fills != nil && uint64(p) < addr.MaxPages {
		return s.fillOf(p.Huge())
	}
	return 0
}

// Set installs the metadata entry for page p. Pages at or beyond
// addr.MaxPages, which addr.Layout.Validate keeps out of every pool, are
// refused.
func (s *Store) Set(p addr.FPage, e Entry) error {
	if _, err := Encode(e, s.layout.ACMBits); err != nil {
		return err
	}
	if uint64(p) >= addr.MaxPages {
		return fmt.Errorf("acm: page %d is beyond the %d pages a store can hold", p, uint64(addr.MaxPages))
	}
	s.put(p, packSlot(e))
	s.writes++
	return nil
}

// Clear removes the entry for p (page freed). A page of a carved region
// without a cell of its own gets a cell holding the zero slot, so it no
// longer reads its region's fill.
func (s *Store) Clear(p addr.FPage) {
	if i := s.find(p); i >= 0 {
		s.cells[i].v = 0
	} else if s.slotOf(p) != 0 {
		s.put(p, 0)
	}
	s.writes++
}

// Entry returns the metadata for p; unallocated pages decode as
// {Owner:0, Perm:PermNone}, which denies everyone.
func (s *Store) Entry(p addr.FPage) Entry {
	return s.slotOf(p).entry()
}

// Has reports whether p has an installed metadata entry.
func (s *Store) Has(p addr.FPage) bool {
	return s.slotOf(p) != 0
}

// Entries calls yield for every page that has an installed entry, in
// ascending page order, until yield returns false: every page of a carved
// region is included. It sorts a copy of the table, so it allocates and
// belongs off the hot path. yield may Set the entry of the page it is
// handed, which rewrites it in place; any other mutation of the store
// during the iteration is not allowed.
func (s *Store) Entries(yield func(addr.FPage, Entry) bool) {
	// Each cell packs into one word that sorts by page: key<<32 | slot.
	cells := make([]uint64, 0, s.used)
	for _, c := range s.cells {
		if c.key != 0 {
			cells = append(cells, uint64(c.key)<<32|uint64(c.v))
		}
	}
	slices.Sort(cells)
	page := func(i int) uint64 { return cells[i]>>32 - 1 }
	ci := 0
	// upTo yields the cells of pages below end.
	upTo := func(end uint64) bool {
		for ; ci < len(cells) && page(ci) < end; ci++ {
			if v := slot(cells[ci]); v != 0 && !yield(addr.FPage(page(ci)), v.entry()) {
				return false
			}
		}
		return true
	}
	for _, r := range s.fills {
		lo := r.huge * addr.PagesPerHuge
		hi := min(lo+addr.PagesPerHuge, addr.MaxPages)
		if !upTo(lo) {
			return
		}
		for p := lo; p < hi; p++ {
			v := r.fill
			if ci < len(cells) && page(ci) == p {
				v = slot(cells[ci])
				ci++
			}
			if v != 0 && !yield(addr.FPage(p), v.entry()) {
				return
			}
		}
	}
	upTo(addr.MaxPages)
}

// MarkShared flags every 4KB sub-page of the 1GB region as shared (the
// paper sets all sub-page node-ID fields to the shared marker when a page
// becomes shared) with the given default permission: the region's fill
// becomes the marker, and every cell already in the region is overwritten
// with it.
func (s *Store) MarkShared(huge uint64, defaultPerm Perm) {
	fill := packSlot(Entry{Owner: SharedOwner(s.layout.ACMBits), Perm: defaultPerm})
	i, found := slices.BinarySearchFunc(s.fills, huge, func(r region, h uint64) int { return cmp.Compare(r.huge, h) })
	if found {
		s.fills[i].fill = fill
	} else {
		s.fills = slices.Insert(s.fills, i, region{huge: huge, fill: fill})
	}
	lo := huge * addr.PagesPerHuge
	for i, c := range s.cells {
		if c.key != 0 && uint64(c.key-1)-lo < addr.PagesPerHuge {
			s.cells[i].v = fill
		}
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
