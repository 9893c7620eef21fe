package broker

import (
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/arena"
)

func layout() addr.Layout {
	// Small pool to keep tests fast: 4GB FAM.
	return addr.Layout{DRAMSize: 1 << 30, FAMZoneSize: 2 << 30, FAMSize: 4 << 30, ACMBits: 16}
}

func newBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := New(layout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidatesLayout(t *testing.T) {
	if _, err := New(addr.Layout{}, 1); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestAllocateSetsOwnershipAndACM(t *testing.T) {
	b := newBroker(t)
	p, err := b.AllocatePage(3)
	if err != nil {
		t.Fatal(err)
	}
	if d := b.Meta().Check(p, 3, acm.PermRWX); !d.Allowed {
		t.Fatalf("owner denied: %+v", d)
	}
	if d := b.Meta().Check(p, 4, acm.PermR); d.Allowed {
		t.Fatal("foreign node allowed")
	}
	if b.OwnedPages(3) != 1 {
		t.Fatalf("owned = %d", b.OwnedPages(3))
	}
}

func TestAllocationIsRandomButDeterministic(t *testing.T) {
	b1, _ := New(layout(), 7)
	b2, _ := New(layout(), 7)
	b3, _ := New(layout(), 8)
	var s1, s2, s3 []addr.FPage
	for i := 0; i < 64; i++ {
		p1, _ := b1.AllocatePage(1)
		p2, _ := b2.AllocatePage(1)
		p3, _ := b3.AllocatePage(1)
		s1, s2, s3 = append(s1, p1), append(s2, p2), append(s3, p3)
	}
	sequential, sameSeedEqual, diffSeedEqual := true, true, true
	for i := range s1 {
		if i > 0 && s1[i] != s1[i-1]+1 {
			sequential = false
		}
		if s1[i] != s2[i] {
			sameSeedEqual = false
		}
		if s1[i] != s3[i] {
			diffSeedEqual = false
		}
	}
	if sequential {
		t.Fatal("placement is sequential; the paper requires random FAM placement")
	}
	if !sameSeedEqual {
		t.Fatal("same seed must reproduce the same placement")
	}
	if diffSeedEqual {
		t.Fatal("different seeds produced identical placement")
	}
}

func TestNodeIDSpaceEnforced(t *testing.T) {
	b := newBroker(t)
	if _, err := b.AllocatePage(0x3FFF); err == nil {
		t.Fatal("shared-marker node ID accepted as a real node")
	}
}

func TestMapForNodeInstallsTranslation(t *testing.T) {
	b := newBroker(t)
	np := addr.NPPage(0x800)
	p, err := b.MapForNode(2, np)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := b.NodeTable(2)
	if v, ok := tbl.Lookup(uint64(np)); !ok || addr.FPage(v) != p {
		t.Fatal("translation not installed")
	}
	// Idempotent: mapping again returns the same page without allocating.
	owned := b.OwnedPages(2)
	p2, err := b.MapForNode(2, np)
	if err != nil || p2 != p {
		t.Fatalf("remap changed page: %v vs %v (%v)", p2, p, err)
	}
	if b.OwnedPages(2) != owned {
		t.Fatal("remap leaked a page")
	}
}

func TestFreePageEnforcesOwner(t *testing.T) {
	b := newBroker(t)
	p, _ := b.AllocatePage(1)
	if err := b.FreePage(2, p); err == nil {
		t.Fatal("foreign free accepted")
	}
	if err := b.FreePage(1, p); err != nil {
		t.Fatal(err)
	}
	if d := b.Meta().Check(p, 1, acm.PermR); d.Allowed {
		t.Fatal("freed page still accessible")
	}
}

func TestSharedRegionLifecycle(t *testing.T) {
	b := newBroker(t)
	huge, err := b.AllocateSharedRegion(acm.PermR)
	if err != nil {
		t.Fatal(err)
	}
	b.Grant(huge, 1, acm.PermRW)
	b.Grant(huge, 2, acm.PermR)

	p1, err := b.SharedPageFor(1, 0x900, huge, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.SharedPageFor(2, 0x700, huge, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("two nodes mapping the same shared offset got different FAM pages")
	}
	if d := b.Meta().Check(p1, 1, acm.PermRW); !d.Allowed || !d.Shared {
		t.Fatalf("writer denied: %+v", d)
	}
	if d := b.Meta().Check(p1, 2, acm.PermRW); d.Allowed {
		t.Fatal("reader allowed to write")
	}
	if d := b.Meta().Check(p1, 3, acm.PermR); d.Allowed {
		t.Fatal("ungranted node allowed")
	}
	if _, err := b.SharedPageFor(1, 1, huge, addr.PagesPerHuge); err == nil {
		t.Fatal("out-of-range shared offset accepted")
	}
}

func TestSharedRegionsDoNotCollideWithRandomPool(t *testing.T) {
	b := newBroker(t)
	huge, _ := b.AllocateSharedRegion(acm.PermR)
	lo := addr.FPage(huge * addr.PagesPerHuge)
	hi := lo + addr.PagesPerHuge
	for i := 0; i < 2000; i++ {
		p, err := b.AllocatePage(1)
		if err != nil {
			t.Fatal(err)
		}
		if p >= lo && p < hi {
			t.Fatalf("random pool handed out page %d inside shared region [%d,%d)", p, lo, hi)
		}
	}
}

// handedOut lists, per whole region of b's usable pool, whether any page
// the broker has handed out lies in it: a data page with an ACM entry or
// a node of a FAM page table.
func handedOut(b *Broker) []bool {
	busy := make([]bool, b.Layout().UsableFAMPages()/addr.PagesPerHuge)
	mark := func(p addr.FPage) {
		if h := p.Huge(); h < uint64(len(busy)) {
			busy[h] = true
		}
	}
	b.Meta().Entries(func(p addr.FPage, _ acm.Entry) bool { mark(p); return true })
	for _, t := range b.nodeMaps {
		t.TablePages(func(phys uint64) bool { mark(addr.FPage(phys)); return true })
	}
	return busy
}

// TestSharedRegionSkipsHandedOutPages: carving a region must not take a
// page the broker already handed out. Node 2's FAM page table and node 1's
// data pages are placed first, until one of node 1's pages lands in the
// top region; the broker must then carve the highest region holding none
// of them, and node 1 keeps its access to every page it owns.
func TestSharedRegionSkipsHandedOutPages(t *testing.T) {
	// 8GB: seven whole regions, so a few draws leave some untouched.
	l := layout()
	l.FAMSize = 8 << 30
	b, err := New(l, 42)
	if err != nil {
		t.Fatal(err)
	}
	regions := b.Layout().UsableFAMPages() / addr.PagesPerHuge
	if _, err := b.NodeTable(2); err != nil {
		t.Fatal(err)
	}
	var pages []addr.FPage
	for len(pages) == 0 || pages[len(pages)-1].Huge() != regions-1 {
		p, err := b.AllocatePage(1)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	busy := handedOut(b)
	want := -1
	for h := len(busy) - 1; h >= 0; h-- {
		if !busy[h] {
			want = h
			break
		}
	}
	if want < 0 {
		t.Fatalf("all %d regions hold a page after %d draws; the scenario needs a free one", regions, len(pages))
	}
	owned := b.OwnedPages(1)
	huge, err := b.AllocateSharedRegion(acm.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if huge != uint64(want) {
		t.Fatalf("carved region %d, want %d, the highest holding no handed-out page (busy %v)", huge, want, busy)
	}
	for _, p := range pages {
		if d := b.Meta().Check(p, 1, acm.PermRW); !d.Allowed {
			t.Fatalf("page %d of node 1 lost its access to the carve: %s", p, d.DeniedReason)
		}
	}
	if got := b.OwnedPages(1); got != owned {
		t.Fatalf("OwnedPages(1) = %d after the carve, %d before", got, owned)
	}
}

// TestSharedRegionRefusesWhenNoneFree: once every whole region is carved
// or holds a handed-out page, AllocateSharedRegion errs and leaves the
// metadata as it was.
func TestSharedRegionRefusesWhenNoneFree(t *testing.T) {
	b := newBroker(t)
	regions := b.Layout().UsableFAMPages() / addr.PagesPerHuge
	seen := map[uint64]bool{}
	for uint64(len(seen)) < regions-1 {
		p, err := b.AllocatePage(1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Huge() < regions {
			seen[p.Huge()] = true
		}
	}
	for h := uint64(0); h < regions; h++ {
		if !seen[h] {
			if got, err := b.AllocateSharedRegion(acm.PermR); err != nil || got != h {
				t.Fatalf("AllocateSharedRegion = %d, %v; want the one free region %d", got, err, h)
			}
		}
	}
	writes := b.Meta().Writes()
	if _, err := b.AllocateSharedRegion(acm.PermR); err == nil {
		t.Fatal("carved a region although each is carved or holds a page")
	}
	if b.Meta().Writes() != writes {
		t.Fatal("a refused carve wrote metadata")
	}
}

func TestMigrateJob(t *testing.T) {
	b := newBroker(t)
	var pages []addr.FPage
	for i := 0; i < 10; i++ {
		p, err := b.MapForNode(1, addr.NPPage(0x800+i))
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	cost, err := b.MigrateJob(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cost.ACMRewrites != 10 {
		t.Fatalf("ACM rewrites = %d, want 10 (table nodes are not ACM entries)", cost.ACMRewrites)
	}
	if cost.TranslationsMoved != 10 {
		t.Fatalf("translations moved = %d", cost.TranslationsMoved)
	}
	for _, p := range pages {
		if d := b.Meta().Check(p, 9, acm.PermR); !d.Allowed {
			t.Fatalf("new owner denied page %d: %+v", p, d)
		}
		if d := b.Meta().Check(p, 1, acm.PermR); d.Allowed {
			t.Fatalf("old owner still allowed on page %d", p)
		}
	}
	// The FAM page table followed the job.
	tbl, _ := b.NodeTable(9)
	if _, ok := tbl.Lookup(0x800); !ok {
		t.Fatal("FAM table did not move with the job")
	}
	if _, err := b.MigrateJob(9, 0x3FFF); err == nil {
		t.Fatal("migration to the shared marker accepted")
	}
}

func TestPoolExhaustion(t *testing.T) {
	small := addr.Layout{DRAMSize: 1 << 20, FAMZoneSize: 1 << 20, FAMSize: 64 << 20, ACMBits: 16}
	b, err := New(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := b.FreePages()
	for i := uint64(0); i < n; i++ {
		if _, err := b.AllocatePage(1); err != nil {
			t.Fatalf("allocation %d/%d failed early: %v", i, n, err)
		}
	}
	if _, err := b.AllocatePage(1); err == nil {
		t.Fatal("exhausted pool still allocating")
	}
}

// TestRecycledBrokerMapDoesNotGrow: a broker built from a recycled arena
// takes over the previous run's free-pool override map, storage and all,
// so replaying the same AllocatePage sequence allocates nothing. A fresh
// broker's map grows through the same loop.
func TestRecycledBrokerMapDoesNotGrow(t *testing.T) {
	const pages = 2000
	allocate := func(b *Broker) func() {
		return func() {
			for i := 0; i < pages; i++ {
				if _, err := b.AllocatePage(1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a := arena.New()
	first, err := NewInArena(a, layout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun below makes one warm-up pass and one measured pass.
	allocate(first)()
	allocate(first)()
	first.Recycle(a)
	recycled, err := NewInArena(a, layout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, allocate(recycled)); n != 0 {
		t.Fatalf("recycled broker allocated %.0f times over %d pages, want 0", n, pages)
	}
	fresh, err := NewInArena(arena.New(), layout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, allocate(fresh)); n == 0 {
		t.Fatal("fresh broker's map did not grow; the guard above proves nothing")
	}
}

func BenchmarkBrokerAllocate(b *testing.B) {
	l := addr.Layout{DRAMSize: 64 << 20, FAMZoneSize: 448 << 20, FAMSize: 1 << 30, ACMBits: 16}
	brk, err := New(l, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := brk.AllocatePage(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := brk.FreePage(1, p); err != nil {
			b.Fatal(err)
		}
	}
}
