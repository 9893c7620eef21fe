package node

import (
	"fmt"

	"deact/internal/addr"
)

// osAllocator is the node OS' physical-page allocator over the imaginary
// flat node-physical space. It implements the paper's placement policy
// (§IV footnote 3): 20% of first-touched pages come from the local-DRAM
// zone and 80% from the FAM zone, deterministically (every LocalEveryN-th
// allocation is local).
type osAllocator struct {
	layout      addr.Layout
	localNext   uint64 // next free local page number
	localLimit  uint64 // pages below this are allocatable local DRAM
	famNext     uint64 // next free FAM-zone page number
	famLimit    uint64
	localEveryN int
	count       uint64
}

// newOSAllocator builds an allocator; reservedDRAMBytes (the DeACT
// translation-cache region at the top of DRAM) is excluded from the local
// zone.
func newOSAllocator(l addr.Layout, reservedDRAMBytes uint64, localEveryN int) *osAllocator {
	return &osAllocator{
		layout:      l,
		localLimit:  (l.DRAMSize - reservedDRAMBytes) / addr.PageSize,
		famNext:     l.DRAMSize / addr.PageSize,
		famLimit:    (l.DRAMSize + l.FAMZoneSize) / addr.PageSize,
		localEveryN: localEveryN,
	}
}

// Alloc hands out the next node-physical page under the 20/80 policy,
// spilling to the other zone when one fills.
func (o *osAllocator) Alloc() (addr.NPPage, error) {
	o.count++
	preferLocal := o.count%uint64(o.localEveryN) == 0
	localFree := o.localNext < o.localLimit
	famFree := o.famNext < o.famLimit
	switch {
	case preferLocal && localFree, !famFree && localFree:
		p := addr.NPPage(o.localNext)
		o.localNext++
		return p, nil
	case famFree:
		p := addr.NPPage(o.famNext)
		o.famNext++
		return p, nil
	default:
		return 0, fmt.Errorf("node OS: physical memory exhausted (%d pages allocated)", o.count-1)
	}
}

// LocalAllocated returns how many local-zone pages have been handed out.
func (o *osAllocator) LocalAllocated() uint64 { return o.localNext }
