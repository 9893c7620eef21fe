// Package pagetable implements hierarchical (multi-tier) radix page tables
// (§II-B of the paper). The same structure serves two roles in a DeACT
// system:
//
//   - the per-process node page table, walked by the node MMU on TLB misses
//     (virtual page → node-physical page), and
//   - the per-node FAM page table, walked by the STU on system-translation
//     misses (node-physical page → FAM page).
//
// The table is functional (a radix tree backed by dense 512-entry arrays,
// exactly the shape of the hardware tables it models) but *placed*: every
// table node occupies a physical page obtained from an allocator, and Walk
// reports the physical address of each 8-byte entry it touches. That is the
// property the whole evaluation hinges on — in I-FAM each node page-table
// step that lands in the FAM zone needs its own system-level translation,
// which is how x86's 4 accesses balloon toward the 24 of nested paging.
//
// Table nodes live in one flat arena and link by index, not pointer: the
// whole tree is a single pointer-free allocation the garbage collector
// never scans, and a walk's per-level loads stay within one backing array.
//
// The modelled entries are 8 bytes (EntrySize; WalkStep.EntryAddr steps by
// it), but the host stores 4 bytes per entry: an entry only ever holds a
// 32-bit page number or child index, so a 512-entry node takes 2KB of host
// memory for the 4KB page it models. Map therefore refuses values of
// MaxValue+1 and above, and addr.Layout.Validate bounds every page number
// the simulator maps to MaxValue.
package pagetable

import (
	"fmt"

	"deact/internal/arena"
)

// Levels is the number of radix levels (PGD, PUD, PMD, PTE in x86-64).
const Levels = 4

// bitsPerLevel is the radix width of each level (512 entries × 8B = 4KB).
const bitsPerLevel = 9

// entriesPerNode is the fan-out of one table node.
const entriesPerNode = 1 << bitsPerLevel

// EntrySize is the size of one page-table entry in bytes.
const EntrySize = 8

// levelMask extracts one level's index.
const levelMask = entriesPerNode - 1

// MaxValue is the largest value Map accepts: a slot stores value + 1 in 32
// bits, and 0 means "not present".
const MaxValue = 1<<32 - 2

// PageAllocator provides physical pages for table nodes. The node page
// table allocates from node-physical space (so kernel tables follow the
// same 20/80 DRAM/FAM split as data); the FAM page table allocates from the
// broker's FAM pool.
type PageAllocator func() (pageNumber uint64, err error)

// tnode is one 512-entry table page. Interior nodes store child arena
// indices + 1 in slots (0 = no child); leaf (PTE-level) nodes store mapped
// values + 1 (0 = not present). The +1 bias keeps the zero value meaningful
// without separate presence arrays, so a node is one dense pointer-free
// block.
type tnode struct {
	phys  uint64 // physical page number holding this 512-entry table
	slots [entriesPerNode]uint32
}

// Table is a 4-level radix page table mapping uint64 page numbers to page
// numbers of at most MaxValue.
type Table struct {
	name  string
	alloc PageAllocator
	nodes []tnode // arena; nodes[0] is the root
	tag   string  // the arena tag nodes came from and returns to

	mapped     uint64
	tableNodes uint64
}

// New creates an empty table whose nodes are placed by alloc.
func New(name string, alloc PageAllocator) (*Table, error) {
	return NewInArena(nil, "", name, alloc)
}

// NewInArena is New drawing the table and its node arena from a, so a
// recycled table's growth to its previous high-water mark allocates
// nothing. The node arena comes from, and returns to, the free list under
// tag: tables of different roles (a node's page table, the broker's FAM
// page tables) grow to different sizes, and under one tag they would
// compete for the largest buffer. A nil arena allocates normally.
func NewInArena(a *arena.Arena, tag, name string, alloc PageAllocator) (*Table, error) {
	if alloc == nil {
		return nil, fmt.Errorf("pagetable %s: nil allocator", name)
	}
	t := arena.Alloc[Table](a, "pagetable.Table")
	// Length 0: appended nodes are written whole, so stale recycled
	// contents are never observable.
	t.name, t.alloc, t.tag = name, alloc, tag
	t.nodes = arena.Slice[tnode](a, tag, 0)
	if _, err := t.newNode(); err != nil {
		return nil, err
	}
	return t, nil
}

// Recycle returns the table and its node arena to a for the next run's
// construction. The table must not be used afterwards.
func (t *Table) Recycle(a *arena.Arena) {
	arena.Release(a, t.tag, t.nodes)
	arena.Free(a, "pagetable.Table", t)
}

// newNode appends a fresh table node to the arena and returns its index.
// Callers must not hold *tnode pointers across this call (the arena may
// move); they re-index through t.nodes.
func (t *Table) newNode() (uint32, error) {
	p, err := t.alloc()
	if err != nil {
		return 0, fmt.Errorf("pagetable %s: allocating table node: %w", t.name, err)
	}
	t.tableNodes++
	t.nodes = append(t.nodes, tnode{phys: p})
	return uint32(len(t.nodes) - 1), nil
}

// index returns the radix index of key at the given level (0 = root).
func index(key uint64, level int) uint16 {
	shift := uint(bitsPerLevel * (Levels - 1 - level))
	return uint16((key >> shift) & levelMask)
}

// entryAddr is the physical address of entry idx in the table page phys.
func entryAddr(phys uint64, idx uint16) uint64 {
	return phys<<12 + uint64(idx)*EntrySize
}

// Map installs key → value, allocating intermediate nodes as needed.
// Remapping an existing key overwrites the old value. A value above
// MaxValue is refused before any node is allocated.
func (t *Table) Map(key, value uint64) error {
	if value > MaxValue {
		return fmt.Errorf("pagetable %s: value %#x exceeds the 32-bit entry (max %#x)", t.name, value, uint64(MaxValue))
	}
	ni := uint32(0)
	for lvl := 0; lvl < Levels-1; lvl++ {
		idx := index(key, lvl)
		child := t.nodes[ni].slots[idx]
		if child == 0 {
			ci, err := t.newNode()
			if err != nil {
				return err
			}
			child = ci + 1
			t.nodes[ni].slots[idx] = child
		}
		ni = child - 1
	}
	idx := index(key, Levels-1)
	if t.nodes[ni].slots[idx] == 0 {
		t.mapped++
	}
	t.nodes[ni].slots[idx] = uint32(value) + 1
	return nil
}

// Unmap removes key, reporting whether it was mapped. Intermediate nodes
// are retained (as real kernels do).
func (t *Table) Unmap(key uint64) bool {
	ni, ok := t.descend(key, Levels-1)
	if !ok {
		return false
	}
	idx := index(key, Levels-1)
	if t.nodes[ni].slots[idx] == 0 {
		return false
	}
	t.nodes[ni].slots[idx] = 0
	t.mapped--
	return true
}

// descend walks interior levels 0..stop-1, returning the node serving key
// at level stop.
func (t *Table) descend(key uint64, stop int) (uint32, bool) {
	ni := uint32(0)
	for lvl := 0; lvl < stop; lvl++ {
		child := t.nodes[ni].slots[index(key, lvl)]
		if child == 0 {
			return 0, false
		}
		ni = child - 1
	}
	return ni, true
}

// Lookup returns the mapping for key without recording a walk.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	ni, ok := t.descend(key, Levels-1)
	if !ok {
		return 0, false
	}
	v := t.nodes[ni].slots[index(key, Levels-1)]
	if v == 0 {
		return 0, false
	}
	return uint64(v - 1), true
}

// WalkStep records one page-table memory reference.
type WalkStep struct {
	// Level is 0 (PGD) … 3 (PTE).
	Level int
	// EntryAddr is the physical address of the 8B entry read (the modelled
	// entry size, whatever the host stores).
	EntryAddr uint64
	// NodePhys is the physical page number of the table node read.
	NodePhys uint64
}

// Walk resolves key starting at startLevel (0 for a full walk; higher when a
// PTW cache already holds the upper levels). It returns the memory
// references performed, the mapped value, and whether the key was mapped.
// An unmapped key still incurs the references down to the level where the
// walk faulted.
func (t *Table) Walk(key uint64, startLevel int) (steps []WalkStep, value uint64, ok bool) {
	return t.WalkAppend(key, startLevel, nil)
}

// WalkAppend is Walk appending into buf, so a caller on the per-miss hot
// path can reuse one scratch buffer across walks instead of allocating.
func (t *Table) WalkAppend(key uint64, startLevel int, buf []WalkStep) (steps []WalkStep, value uint64, ok bool) {
	if startLevel < 0 {
		startLevel = 0
	}
	ni := uint32(0)
	// Descend silently to startLevel: those entries came from a PTW cache.
	for lvl := 0; lvl < startLevel && lvl < Levels-1; lvl++ {
		child := t.nodes[ni].slots[index(key, lvl)]
		if child == 0 {
			// The PTW cache claimed coverage the table no longer has; fall
			// back to walking from here.
			startLevel = lvl
			break
		}
		ni = child - 1
	}
	steps = buf
	for lvl := startLevel; lvl < Levels; lvl++ {
		idx := index(key, lvl)
		n := &t.nodes[ni]
		steps = append(steps, WalkStep{Level: lvl, EntryAddr: entryAddr(n.phys, idx), NodePhys: n.phys})
		if lvl == Levels-1 {
			v := n.slots[idx]
			if v == 0 {
				return steps, 0, false
			}
			return steps, uint64(v - 1), true
		}
		child := n.slots[idx]
		if child == 0 {
			return steps, 0, false
		}
		ni = child - 1
	}
	return steps, 0, false
}

// NodePhysAt returns the physical page of the table node that would serve
// key at level (the value a PTW cache stores). ok is false if the node does
// not exist yet.
func (t *Table) NodePhysAt(key uint64, level int) (uint64, bool) {
	ni, ok := t.descend(key, level)
	if !ok {
		return 0, false
	}
	return t.nodes[ni].phys, true
}

// Mapped returns the number of installed leaf mappings.
func (t *Table) Mapped() uint64 { return t.mapped }

// TableNodes returns the number of physical pages consumed by table nodes.
func (t *Table) TableNodes() uint64 { return t.tableNodes }

// RootPhys returns the physical page of the root table (the CR3 analogue).
func (t *Table) RootPhys() uint64 { return t.nodes[0].phys }

// Name returns the table's name.
func (t *Table) Name() string { return t.name }
