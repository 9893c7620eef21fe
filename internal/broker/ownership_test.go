package broker

import (
	"fmt"
	"math/rand"
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/pagetable"
)

// Page kinds the reference tracks beside its owner table.
const (
	kindFree uint8 = iota
	kindData
	kindTable
	kindShared
)

// refOwnership is a dense per-page owner table: owner + 1 per FAM page (0 =
// unowned), kept up to date op by op the way the broker once kept its own,
// plus each page's kind and each node's FAM mappings.
type refOwnership struct {
	owner  []uint16
	kind   []uint8
	tables map[uint16]map[addr.NPPage]addr.FPage // nodes holding a FAM page table
}

func newRefOwnership(l addr.Layout) *refOwnership {
	n := l.UsableFAMPages()
	return &refOwnership{owner: make([]uint16, n), kind: make([]uint8, n), tables: map[uint16]map[addr.NPPage]addr.FPage{}}
}

func (r *refOwnership) owned(node uint16) uint64 {
	var n uint64
	for _, o := range r.owner {
		if o == node+1 {
			n++
		}
	}
	return n
}

// ownershipRun drives one broker and its reference with a random op
// sequence and fails t at the first disagreement.
type ownershipRun struct {
	t      *testing.T
	rng    *rand.Rand
	b      *Broker
	ref    *refOwnership
	nodes  []uint16     // real IDs, the largest one and the shared marker
	pages  []addr.FPage // every page handed out so far, for FreePage draws
	huge   uint64
	shared bool
}

func (o *ownershipRun) node() uint16 { return o.nodes[o.rng.Intn(len(o.nodes))] }

// npPage draws mostly from a small window, so remaps and shared-table
// nodes are common, and sometimes from a far subtree.
func (o *ownershipRun) npPage() addr.NPPage {
	if o.rng.Intn(8) == 0 {
		return addr.NPPage(1<<27 + o.rng.Intn(4)<<18 + o.rng.Intn(64))
	}
	return addr.NPPage(0x800 + o.rng.Intn(96))
}

// openTable records that node now holds a FAM page table.
func (o *ownershipRun) openTable(node uint16) {
	if o.ref.tables[node] == nil {
		o.ref.tables[node] = map[addr.NPPage]addr.FPage{}
	}
}

// recordTablePath gives node the table nodes on np's path that the
// reference has not seen yet: the pages the broker just drew for its table.
func (o *ownershipRun) recordTablePath(node uint16, np addr.NPPage) {
	tbl, err := o.b.NodeTable(node)
	if err != nil {
		o.t.Fatal(err)
	}
	for l := 0; l < pagetable.Levels; l++ {
		phys, ok := tbl.NodePhysAt(uint64(np), l)
		if !ok {
			return
		}
		p := addr.FPage(phys)
		switch o.ref.kind[p] {
		case kindFree:
			o.ref.owner[p], o.ref.kind[p] = node+1, kindTable
			o.pages = append(o.pages, p)
		case kindTable:
		default:
			o.t.Fatalf("table node of node %d on page %d, which the reference holds as kind %d", node, p, o.ref.kind[p])
		}
	}
}

// takeData records a data page the broker just handed node.
func (o *ownershipRun) takeData(node uint16, p addr.FPage) {
	if o.ref.kind[p] != kindFree {
		o.t.Fatalf("page %d handed to node %d while the reference holds it as kind %d", p, node, o.ref.kind[p])
	}
	o.ref.owner[p], o.ref.kind[p] = node+1, kindData
	o.pages = append(o.pages, p)
}

func (o *ownershipRun) checkErr(op string, err error, wantErr bool) {
	if (err != nil) != wantErr {
		o.t.Fatalf("%s: err = %v, reference expects error: %v", op, err, wantErr)
	}
}

func (o *ownershipRun) step() {
	valid := func(n uint16) bool { return int(n) < acm.MaxNodes(o.b.Layout().ACMBits) }
	switch k := o.rng.Intn(10); {
	case k < 3: // AllocatePage
		n := o.node()
		p, err := o.b.AllocatePage(n)
		o.checkErr(fmt.Sprintf("AllocatePage(%d)", n), err, !valid(n))
		if err == nil {
			o.takeData(n, p)
		}
	case k < 6: // MapForNode
		n, np := o.node(), o.npPage()
		p, err := o.b.MapForNode(n, np)
		o.openTable(n)
		existing, mapped := o.ref.tables[n][np]
		o.checkErr(fmt.Sprintf("MapForNode(%d, %#x)", n, np), err, !mapped && !valid(n))
		o.recordTablePath(n, np)
		switch {
		case err != nil:
		case mapped:
			if p != existing {
				o.t.Fatalf("MapForNode(%d, %#x) = %d, already mapped to %d", n, np, p, existing)
			}
		default:
			o.takeData(n, p)
			o.ref.tables[n][np] = p
		}
	case k == 6: // NodeTable
		n := o.node()
		if _, err := o.b.NodeTable(n); err != nil {
			o.t.Fatal(err)
		}
		o.openTable(n)
		o.recordTablePath(n, 0)
	case k == 7: // SharedPageFor, or FreePage when no region is carved
		if o.shared {
			n, np, off := o.node(), o.npPage(), uint64(o.rng.Intn(addr.PagesPerHuge))
			p, err := o.b.SharedPageFor(n, np, o.huge, off)
			if err != nil {
				o.t.Fatal(err)
			}
			o.openTable(n)
			o.recordTablePath(n, np)
			if o.ref.kind[p] == kindFree {
				o.ref.kind[p] = kindShared
				o.pages = append(o.pages, p)
			}
			o.ref.tables[n][np] = p
			return
		}
		fallthrough
	case k == 8: // FreePage
		n := o.node()
		var p addr.FPage
		if len(o.pages) == 0 || o.rng.Intn(6) == 0 {
			p = addr.FPage(o.rng.Intn(len(o.ref.owner)))
		} else {
			p = o.pages[o.rng.Intn(len(o.pages))]
		}
		err := o.b.FreePage(n, p)
		// The reference frees data pages only: a table node stays with its
		// table, and a shared page is owned by nobody.
		want := o.ref.kind[p] == kindData && o.ref.owner[p] == n+1
		o.checkErr(fmt.Sprintf("FreePage(%d, %d) of kind %d owned by %d", n, p, o.ref.kind[p], int(o.ref.owner[p])-1), err, !want)
		if err == nil {
			o.ref.owner[p], o.ref.kind[p] = 0, kindFree
		}
	default: // MigrateJob
		from, to := o.node(), o.node()
		cost, err := o.b.MigrateJob(from, to)
		_, moving := o.ref.tables[from]
		_, busy := o.ref.tables[to]
		o.checkErr(fmt.Sprintf("MigrateJob(%d, %d)", from, to), err, !valid(to) || moving && busy && from != to)
		if err != nil {
			return
		}
		var want MigrationCost
		for p, own := range o.ref.owner {
			if own != from+1 {
				continue
			}
			o.ref.owner[p] = to + 1
			if o.ref.kind[p] == kindData {
				want.ACMRewrites++
			}
		}
		if moving {
			want.TranslationsMoved = uint64(len(o.ref.tables[from]))
			t := o.ref.tables[from]
			delete(o.ref.tables, from)
			o.ref.tables[to] = t
		}
		if cost != want {
			o.t.Fatalf("MigrateJob(%d, %d) = %+v, reference %+v", from, to, cost, want)
		}
	}
}

func (o *ownershipRun) compareOwned(when string) {
	for _, n := range o.nodes {
		if got, want := o.b.OwnedPages(n), o.ref.owned(n); got != want {
			o.t.Fatalf("%s: OwnedPages(%d) = %d, reference %d", when, n, got, want)
		}
	}
}

// TestOwnershipMatchesDenseOwnerTable holds ownership read from the ACM and
// the FAM page tables to a dense owner table updated op by op: random
// AllocatePage, MapForNode, NodeTable, SharedPageFor, FreePage and
// MigrateJob calls over a small pool, at 8- and 16-bit ACM widths, with
// and without a shared region, from node IDs that include the largest
// valid ID and the shared marker itself. OwnedPages per node, FreePage's
// accept/deny and MigrationCost must agree with the reference throughout.
//
// Shared regions are carved before any page is drawn: carving a region
// overwrites the ACM entries of pages already handed out inside it (see
// AllocateSharedRegion), which an owner table of its own would not see.
func TestOwnershipMatchesDenseOwnerTable(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		acmBits := []uint{16, 8}[trial%2]
		shared := trial < 2
		t.Run(fmt.Sprintf("acm%d/shared=%v", acmBits, shared), func(t *testing.T) {
			// 3GB: region 1 can be carved and region 0 keeps the random pool.
			l := addr.Layout{DRAMSize: 1 << 20, FAMZoneSize: 1 << 20, FAMSize: 3 << 30, ACMBits: acmBits}
			b, err := New(l, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			marker := acm.SharedOwner(acmBits)
			o := &ownershipRun{t: t, rng: rand.New(rand.NewSource(int64(100 + trial))), b: b, ref: newRefOwnership(l),
				nodes: []uint16{0, 1, 2, marker - 1, marker}, shared: shared}
			if shared {
				if o.huge, err = b.AllocateSharedRegion(acm.PermR); err != nil {
					t.Fatal(err)
				}
			}
			const ops = 400
			for i := 1; i <= ops; i++ {
				o.step()
				if i%40 == 0 {
					o.compareOwned(fmt.Sprintf("after op %d", i))
				}
			}
		})
	}
}

// TestFreePageRefusesTablePages: a FAM page-table node is owned through
// its table, not its ACM entry, and freeing it would hand a live table
// page back to the pool.
func TestFreePageRefusesTablePages(t *testing.T) {
	b := newBroker(t)
	tbl, err := b.NodeTable(4)
	if err != nil {
		t.Fatal(err)
	}
	root := addr.FPage(tbl.RootPhys())
	if err := b.FreePage(4, root); err == nil {
		t.Fatal("FreePage freed the root of node 4's FAM page table")
	}
	if b.OwnedPages(4) != 1 {
		t.Fatalf("OwnedPages(4) = %d, want the root", b.OwnedPages(4))
	}
}

// TestMigrateJobRefusesOccupiedDestination: a node holds one FAM page
// table, so a job cannot migrate onto a node that holds its own; the
// refusal changes nothing.
func TestMigrateJobRefusesOccupiedDestination(t *testing.T) {
	b := newBroker(t)
	for _, n := range []uint16{1, 2} {
		if _, err := b.MapForNode(n, 0x800); err != nil {
			t.Fatal(err)
		}
	}
	own1, own2 := b.OwnedPages(1), b.OwnedPages(2)
	if _, err := b.MigrateJob(1, 2); err == nil {
		t.Fatal("migration onto a node holding a FAM page table accepted")
	}
	if b.OwnedPages(1) != own1 || b.OwnedPages(2) != own2 {
		t.Fatal("refused migration moved pages")
	}
	if cost, err := b.MigrateJob(1, 1); err != nil || cost.ACMRewrites != 1 || cost.TranslationsMoved != 1 {
		t.Fatalf("MigrateJob(1, 1) = %+v, %v", cost, err)
	}
}
