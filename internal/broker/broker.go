// Package broker implements the centralized system-level memory manager of
// a FAM system — the role Opal plays in the paper's SST setup (§I, §IV). A
// single broker owns the shared FAM pool and:
//
//   - allocates FAM pages to nodes on demand, *randomly placed* across the
//     pool ("since FAM is shared by multiple nodes, memory allocation is
//     random and hence has poor spatial locality", §III-D — the property
//     that separates DeACT-W from DeACT-N);
//   - maintains each node's FAM page table (node-physical page → FAM page),
//     whose table nodes themselves live in FAM and are walked by the STU;
//   - writes the per-page access-control metadata and shared-region bitmaps
//     (package acm); and
//   - supports shared 1GB regions and job migration (§VI).
//
// Allocation and metadata writes happen off the simulated critical path
// (they are OS/broker work the paper does not charge to application time).
package broker

import (
	"fmt"
	"math/rand"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/arena"
	"deact/internal/pagetable"
)

// Broker is the centralized FAM manager; it owns the whole usable pool.
type Broker struct {
	layout addr.Layout
	meta   *acm.Store
	rng    *rand.Rand

	// The random-pick free pool is a lazily materialized permutation: it
	// behaves exactly like a []addr.FPage initialized to the identity and
	// shrunk by swap-remove, but only the slots disturbed by draws are
	// stored, so building a broker is O(1) in the pool size and a run's
	// footprint is O(pages actually allocated). freeAt/setFree implement
	// the virtual indexing. Slots and pages fit 32 bits, since
	// addr.Layout.Validate bounds the pool to addr.MaxPages pages.
	//
	// Ownership has no table of its own. A data page's owner is its ACM
	// entry (shared markers excluded); a table page's owner is the node
	// whose FAM page table holds it.
	freeCount uint64                      // virtual pool length
	freeMods  map[uint32]uint32           // sparse overrides of the identity slot i → page i
	nodeMaps  map[uint16]*pagetable.Table // per-node FAM page tables
	hugeNext  uint64                      // next 1GB region index for shared regions
	randLimit uint64                      // pages >= randLimit belong to carved shared regions
	allocated uint64

	a *arena.Arena // recycles table arenas for NodeTable calls made mid-run
}

// New builds a broker for the pool described by layout, with deterministic
// placement driven by seed.
func New(layout addr.Layout, seed int64) (*Broker, error) {
	return NewInArena(nil, layout, seed)
}

// NewInArena is New drawing the broker, the free-pool override map, the
// ACM store, the FAM page tables and the placement source from a. A nil
// arena allocates normally.
func NewInArena(a *arena.Arena, layout addr.Layout, seed int64) (*Broker, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	usable := layout.UsableFAMPages()
	b := arena.Alloc[Broker](a, "broker.Broker")
	b.layout = layout
	b.meta = acm.NewStoreInArena(a, layout)
	b.rng = arena.Rand(a, seed)
	b.freeCount = usable
	b.freeMods = arena.Map[uint32, uint32](a, "broker.freeMods")
	b.nodeMaps = arena.Map[uint16, *pagetable.Table](a, "broker.nodeMaps")
	b.a = a
	// Shared 1GB regions are carved from the top of the usable area,
	// growing downward; the random-allocation pool keeps everything below
	// the carve boundary.
	b.hugeNext = usable / addr.PagesPerHuge
	b.randLimit = usable
	return b, nil
}

// freeAt reads virtual free-pool slot i. The identity permutation maps slot
// i to page i.
func (b *Broker) freeAt(i uint64) addr.FPage {
	if p, ok := b.freeMods[uint32(i)]; ok {
		return addr.FPage(p)
	}
	return addr.FPage(i)
}

// setFree writes virtual free-pool slot i.
func (b *Broker) setFree(i uint64, p addr.FPage) {
	if uint64(p) == i {
		delete(b.freeMods, uint32(i))
		return
	}
	b.freeMods[uint32(i)] = uint32(p)
}

// Meta exposes the access-control metadata store (read by the STU).
func (b *Broker) Meta() *acm.Store { return b.meta }

// Layout returns the pool layout.
func (b *Broker) Layout() addr.Layout { return b.layout }

// takeRandom removes and returns a random free page: a swap-remove from the
// virtual pool, drawing the identical page sequence (per seed) the eagerly
// built pool drew.
func (b *Broker) takeRandom() (addr.FPage, error) {
	for b.freeCount > 0 {
		i := uint64(b.rng.Intn(int(b.freeCount)))
		p := b.freeAt(i)
		last := b.freeCount - 1
		if i != last {
			b.setFree(i, b.freeAt(last))
		}
		delete(b.freeMods, uint32(last))
		b.freeCount = last
		// Skip pages consumed by shared regions carved after pool build.
		if uint64(p) >= b.randLimit {
			continue
		}
		return p, nil
	}
	return 0, fmt.Errorf("broker: FAM pool exhausted after %d allocations", b.allocated)
}

// AllocatePage hands node a freshly placed FAM page with full permissions
// and records ownership in the metadata store, the page's only ownership
// record.
func (b *Broker) AllocatePage(node uint16) (addr.FPage, error) {
	if int(node) >= acm.MaxNodes(b.layout.ACMBits) {
		return 0, fmt.Errorf("broker: node ID %d exceeds the %d-bit ACM ID space", node, b.layout.ACMBits)
	}
	p, err := b.takeRandom()
	if err != nil {
		return 0, err
	}
	b.allocated++
	if err := b.meta.Set(p, acm.Entry{Owner: node, Perm: acm.PermRWX}); err != nil {
		return 0, err
	}
	return p, nil
}

// NodeTable returns (building on first use) node's FAM page table. Its
// table nodes are FAM pages drawn from the random pool; they carry no ACM
// entry, and the table holding them is their ownership record.
func (b *Broker) NodeTable(node uint16) (*pagetable.Table, error) {
	if t, ok := b.nodeMaps[node]; ok {
		return t, nil
	}
	alloc := func() (uint64, error) {
		p, err := b.takeRandom()
		return uint64(p), err
	}
	t, err := pagetable.NewInArena(b.a, "pagetable.fam", fmt.Sprintf("fam-pt.%d", node), alloc)
	if err != nil {
		return nil, err
	}
	b.nodeMaps[node] = t
	return t, nil
}

// Recycle returns the broker with its tables — the free-pool override
// map, the ACM store, every node's FAM page table and the map holding them
// — and its random source to a for the next run's construction. The
// broker (and the tables NodeTable handed out) must not be used
// afterwards.
func (b *Broker) Recycle(a *arena.Arena) {
	arena.ReleaseMap(a, "broker.freeMods", b.freeMods)
	b.meta.Recycle(a)
	for _, t := range b.nodeMaps {
		t.Recycle(a)
	}
	arena.ReleaseMap(a, "broker.nodeMaps", b.nodeMaps)
	arena.ReleaseRand(a, b.rng)
	arena.Free(a, "broker.Broker", b)
}

// MapForNode allocates a FAM page for node and installs the system-level
// translation npPage → FAM page in node's FAM page table. This is the path
// the STU's "request physical pages from the system-level memory broker"
// service takes for unmapped addresses.
func (b *Broker) MapForNode(node uint16, npPage addr.NPPage) (addr.FPage, error) {
	t, err := b.NodeTable(node)
	if err != nil {
		return 0, err
	}
	if existing, ok := t.Lookup(uint64(npPage)); ok {
		return addr.FPage(existing), nil
	}
	p, err := b.AllocatePage(node)
	if err != nil {
		return 0, err
	}
	if err := t.Map(uint64(npPage), uint64(p)); err != nil {
		return 0, err
	}
	return p, nil
}

// FreePage returns a data page to the pool and clears its metadata. Only
// the owner recorded in the page's ACM entry may free it; a shared page or
// a page of a FAM page table is never freed this way.
func (b *Broker) FreePage(node uint16, p addr.FPage) error {
	if !b.meta.Has(p) || !b.ownedBy(b.meta.Entry(p), node) {
		return fmt.Errorf("broker: node %d freeing page %d it does not own", node, p)
	}
	b.meta.Clear(p)
	b.setFree(b.freeCount, p)
	b.freeCount++
	b.allocated--
	return nil
}

// ownedBy reports whether the ACM entry e names node as its data page's
// owner. A shared marker names no node.
func (b *Broker) ownedBy(e acm.Entry, node uint16) bool {
	return e.Owner == node && !b.meta.IsSharedMarker(e)
}

// AllocateSharedRegion carves a 1GB region for sharing, marks all of its
// sub-pages with the shared ACM marker and the given default permission,
// and returns its region index.
func (b *Broker) AllocateSharedRegion(defaultPerm acm.Perm) (uint64, error) {
	if b.hugeNext == 0 {
		return 0, fmt.Errorf("broker: no 1GB regions left for sharing")
	}
	b.hugeNext--
	huge := b.hugeNext
	b.randLimit = huge * addr.PagesPerHuge
	b.meta.MarkShared(huge, defaultPerm)
	return huge, nil
}

// Grant gives node a permission in a shared region's bitmap.
func (b *Broker) Grant(huge uint64, node uint16, p acm.Perm) { b.meta.Grant(huge, node, p) }

// Revoke removes node's grant in a shared region.
func (b *Broker) Revoke(huge uint64, node uint16) { b.meta.Revoke(huge, node) }

// SharedPageFor maps npPage in node's FAM table to a page inside the shared
// region at the given page offset, so multiple nodes can map the same FAM
// page. Access control is enforced by the bitmap, not ownership.
func (b *Broker) SharedPageFor(node uint16, npPage addr.NPPage, huge, offset uint64) (addr.FPage, error) {
	if offset >= addr.PagesPerHuge {
		return 0, fmt.Errorf("broker: shared page offset %d out of range", offset)
	}
	t, err := b.NodeTable(node)
	if err != nil {
		return 0, err
	}
	p := addr.FPage(huge*addr.PagesPerHuge + offset)
	if err := t.Map(uint64(npPage), uint64(p)); err != nil {
		return 0, err
	}
	return p, nil
}

// OwnedPages returns how many pages node currently owns: the data pages
// whose ACM entry names it plus the table nodes of its FAM page table.
func (b *Broker) OwnedPages(node uint16) uint64 {
	var n uint64
	b.meta.Entries(func(_ addr.FPage, e acm.Entry) bool {
		if b.ownedBy(e, node) {
			n++
		}
		return true
	})
	if t, ok := b.nodeMaps[node]; ok {
		n += t.TableNodes()
	}
	return n
}

// FreePages returns the number of allocatable pages remaining.
func (b *Broker) FreePages() uint64 {
	return b.freeCount
}

// MigrationCost summarizes the work a job migration performed (§VI): ACM
// rewrites in FAM and system-translation invalidations, which the caller
// can convert to time.
type MigrationCost struct {
	ACMRewrites       uint64
	TranslationsMoved uint64
}

// MigrateJob moves ownership of every page owned by from to to, rewriting
// ACM entries and re-homing the FAM page table. A node holds one FAM page
// table, so to may not already hold one of its own. The caller is
// responsible for flushing node-side TLBs and translation caches (the
// invalidation hooks live in the node and translator packages).
func (b *Broker) MigrateJob(from, to uint16) (MigrationCost, error) {
	if int(to) >= acm.MaxNodes(b.layout.ACMBits) {
		return MigrationCost{}, fmt.Errorf("broker: destination node %d out of ID space", to)
	}
	t, moving := b.nodeMaps[from]
	if _, busy := b.nodeMaps[to]; moving && busy && from != to {
		return MigrationCost{}, fmt.Errorf("broker: destination node %d already holds a FAM page table", to)
	}
	var cost MigrationCost
	var err error
	// Page-table node pages carry no ACM entry of their own; they move with
	// their table. Only data pages need ACM rewrites.
	b.meta.Entries(func(p addr.FPage, e acm.Entry) bool {
		if !b.ownedBy(e, from) {
			return true
		}
		e.Owner = to
		if err = b.meta.Set(p, e); err != nil {
			return false
		}
		cost.ACMRewrites++
		return true
	})
	if err != nil {
		return cost, err
	}
	if moving {
		delete(b.nodeMaps, from)
		b.nodeMaps[to] = t
		cost.TranslationsMoved = t.Mapped()
	}
	return cost, nil
}
