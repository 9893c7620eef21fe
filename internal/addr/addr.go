// Package addr defines the address spaces of a DeACT-style fabric-attached
// memory (FAM) system and the arithmetic the rest of the simulator performs
// on them.
//
// Three distinct address spaces exist (§II-C, §III-A of the paper):
//
//   - Virtual addresses (VAddr): what applications issue on a node.
//   - Node-physical addresses (NPAddr): the imaginary flat physical space
//     each node's unmodified OS manages. It is split into two NUMA-like
//     zones — low addresses back onto the node's local DRAM, high addresses
//     back onto FAM through a second translation level.
//   - FAM addresses (FAddr): real physical addresses inside the shared
//     fabric-attached memory pool. The top of the pool is carved out for
//     access-control metadata (ACM) and shared-page bitmaps (Figure 5).
//
// Using separate Go types for the three spaces turns a whole class of
// translation bugs into compile errors.
package addr

import "fmt"

// Fundamental granularities, shared across the whole simulator.
const (
	PageShift  = 12
	PageSize   = 1 << PageShift // 4KB pages, as in the paper
	BlockShift = 6
	BlockSize  = 1 << BlockShift // 64B memory access granularity

	// HugeShift is the shift of the 1GB regions used for shared pages and
	// their access-control bitmaps (Figure 5).
	HugeShift = 30
	HugeSize  = 1 << HugeShift

	// PagesPerHuge is the number of 4KB pages in one 1GB shared region.
	PagesPerHuge = HugeSize / PageSize
)

// VAddr is a virtual address issued by an application on a node.
type VAddr uint64

// NPAddr is a node-physical address in the node's imaginary flat space.
type NPAddr uint64

// FAddr is a real FAM (fabric-attached memory) physical address.
type FAddr uint64

// Page numbers for each space. Keeping these distinct too avoids mixing a
// node page number into FAM metadata indexing (the bug class DeACT's V flag
// exists to manage in hardware).
type (
	// VPage is a virtual page number.
	VPage uint64
	// NPPage is a node-physical page number.
	NPPage uint64
	// FPage is a FAM-physical page number.
	FPage uint64
)

// Page extracts the virtual page number.
func (a VAddr) Page() VPage { return VPage(a >> PageShift) }

// Offset returns the intra-page offset of a virtual address.
func (a VAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Block returns the 64B-aligned block address containing a.
func (a VAddr) Block() VAddr { return a &^ (BlockSize - 1) }

// Page extracts the node-physical page number.
func (a NPAddr) Page() NPPage { return NPPage(a >> PageShift) }

// Offset returns the intra-page offset of a node-physical address.
func (a NPAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Block returns the 64B-aligned block address containing a.
func (a NPAddr) Block() NPAddr { return a &^ (BlockSize - 1) }

// Page extracts the FAM page number.
func (a FAddr) Page() FPage { return FPage(a >> PageShift) }

// Offset returns the intra-page offset of a FAM address.
func (a FAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Block returns the 64B-aligned block address containing a.
func (a FAddr) Block() FAddr { return a &^ (BlockSize - 1) }

// Addr returns the first address of the page.
func (p VPage) Addr() VAddr { return VAddr(p) << PageShift }

// Addr returns the first address of the page.
func (p NPPage) Addr() NPAddr { return NPAddr(p) << PageShift }

// Addr returns the first address of the page.
func (p FPage) Addr() FAddr { return FAddr(p) << PageShift }

// Huge returns the index of the 1GB region containing the page.
func (p FPage) Huge() uint64 { return uint64(p) / PagesPerHuge }

// Layout describes the node-physical address map of one node plus the FAM
// pool layout shared by all nodes.
type Layout struct {
	// DRAMSize is the capacity of the node's local DRAM in bytes. The
	// node-physical range [0, DRAMSize) is the local zone.
	DRAMSize uint64
	// FAMZoneSize is the size of the node-physical high zone that the OS
	// believes is ordinary (remote) memory; accesses there need system-level
	// translation to FAM addresses.
	FAMZoneSize uint64
	// FAMSize is the total capacity of the shared FAM pool in bytes,
	// including the metadata carve-out at the top.
	FAMSize uint64
	// ACMBits is the per-4KB-page access-control metadata width in bits
	// (8, 16 or 32; Figure 14 sweeps this).
	ACMBits uint
}

// Validate checks internal consistency.
func (l Layout) Validate() error {
	switch {
	case l.DRAMSize == 0 || l.DRAMSize%PageSize != 0:
		return fmt.Errorf("addr: DRAMSize %d must be a positive multiple of the page size", l.DRAMSize)
	case l.FAMZoneSize == 0 || l.FAMZoneSize%PageSize != 0:
		return fmt.Errorf("addr: FAMZoneSize %d must be a positive multiple of the page size", l.FAMZoneSize)
	case l.FAMSize == 0 || l.FAMSize%PageSize != 0:
		return fmt.Errorf("addr: FAMSize %d must be a positive multiple of the page size", l.FAMSize)
	case l.ACMBits != 8 && l.ACMBits != 16 && l.ACMBits != 32:
		return fmt.Errorf("addr: ACMBits %d must be 8, 16 or 32", l.ACMBits)
	case l.MetadataBytes() >= l.FAMSize:
		return fmt.Errorf("addr: metadata (%d bytes) swallows the whole FAM pool (%d bytes)", l.MetadataBytes(), l.FAMSize)
	}
	return nil
}

// InLocalZone reports whether a node-physical address is backed by the
// node's local DRAM.
func (l Layout) InLocalZone(a NPAddr) bool { return uint64(a) < l.DRAMSize }

// InFAMZone reports whether a node-physical address falls in the high zone
// that needs system-level translation.
func (l Layout) InFAMZone(a NPAddr) bool {
	return uint64(a) >= l.DRAMSize && uint64(a) < l.DRAMSize+l.FAMZoneSize
}

// FAMZoneBase returns the first node-physical address of the FAM zone.
func (l Layout) FAMZoneBase() NPAddr { return NPAddr(l.DRAMSize) }

// TotalFAMPages returns the number of 4KB pages in the whole FAM pool,
// metadata included.
func (l Layout) TotalFAMPages() uint64 { return l.FAMSize / PageSize }

// ACMEntriesPerBlock returns how many per-page metadata entries fit in one
// 64B block (32 for 16-bit ACM — the "very high spatial locality" the paper
// leans on in §III-A).
func (l Layout) ACMEntriesPerBlock() uint64 { return (BlockSize * 8) / uint64(l.ACMBits) }

// MetadataBytes returns the size of the metadata carve-out: per-page ACM
// entries plus one 8KB bitmap (64K bits) per 1GB region (Figure 5: the
// bitmap exists for every 1GB region "regardless of being used as a shared
// page or not").
func (l Layout) MetadataBytes() uint64 {
	acm := l.TotalFAMPages() * uint64(l.ACMBits) / 8
	regions := (l.FAMSize + HugeSize - 1) / HugeSize
	bitmaps := regions * (PagesPerHuge / 8) // 64K bits = 8KB per region
	return acm + bitmaps
}

// UsableFAMPages returns the number of FAM pages available for allocation
// after the metadata carve-out.
func (l Layout) UsableFAMPages() uint64 {
	meta := (l.MetadataBytes() + PageSize - 1) / PageSize
	return l.TotalFAMPages() - meta
}

// MetadataBase returns the FAM address where the metadata region starts
// (MTAdd in §III-A). Metadata is placed at the top of the pool.
func (l Layout) MetadataBase() FAddr {
	return FAddr(l.UsableFAMPages() * PageSize)
}

// ACMBlockAddr returns the FAM address of the 64B block holding the ACM
// entry for the given FAM page: MTAdd + (page / entriesPerBlock) * 64.
func (l Layout) ACMBlockAddr(p FPage) FAddr {
	return l.MetadataBase() + FAddr(uint64(p)/l.ACMEntriesPerBlock()*BlockSize)
}

// BitmapBase returns the FAM address where the shared-page bitmaps start,
// immediately after the per-page ACM entries.
func (l Layout) BitmapBase() FAddr {
	return l.MetadataBase() + FAddr(l.TotalFAMPages()*uint64(l.ACMBits)/8)
}

// BitmapBlockAddr returns the FAM address of the 64B bitmap block holding
// the sharing bit for (1GB region, nodeID). Each region has a 64K-bit bitmap
// (one bit per node); node n's bit lives in byte n/8 of the region's bitmap.
func (l Layout) BitmapBlockAddr(huge uint64, nodeID uint16) FAddr {
	regionBase := l.BitmapBase() + FAddr(huge*(PagesPerHuge/8))
	return (regionBase + FAddr(nodeID/8)).Block()
}

// NPFromVP composes a node-physical address from a page and an offset.
func NPFromVP(p NPPage, offset uint64) NPAddr { return p.Addr() + NPAddr(offset) }

// FFromNP composes a FAM address from a FAM page and the offset of the
// original node-physical address (translation swaps pages, keeps offsets).
func FFromNP(p FPage, offset uint64) FAddr { return p.Addr() + FAddr(offset) }
