package pagetable

import (
	"errors"
	"testing"
	"testing/quick"
)

// seqAlloc hands out sequential page numbers starting at base.
func seqAlloc(base uint64) PageAllocator {
	next := base
	return AllocFunc(func() (uint64, error) {
		p := next
		next++
		return p, nil
	})
}

func TestNewRequiresAllocator(t *testing.T) {
	if _, err := New("t", nil); err == nil {
		t.Fatal("nil allocator accepted")
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tbl, err := New("t", seqAlloc(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(42); ok {
		t.Fatal("empty table resolved a key")
	}
	if err := tbl.Map(42, 777); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Lookup(42); !ok || v != 777 {
		t.Fatalf("lookup = (%d,%v), want (777,true)", v, ok)
	}
	if tbl.Mapped() != 1 {
		t.Fatalf("mapped = %d", tbl.Mapped())
	}
	// Remap overwrites without double-counting.
	if err := tbl.Map(42, 888); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Lookup(42); v != 888 {
		t.Fatal("remap did not overwrite")
	}
	if tbl.Mapped() != 1 {
		t.Fatal("remap double-counted")
	}
	if !tbl.Unmap(42) {
		t.Fatal("unmap failed")
	}
	if tbl.Unmap(42) {
		t.Fatal("double unmap succeeded")
	}
	if _, ok := tbl.Lookup(42); ok {
		t.Fatal("key survived unmap")
	}
}

func TestWalkProducesFourSteps(t *testing.T) {
	tbl, _ := New("t", seqAlloc(100))
	tbl.Map(0x123456789, 55)
	steps, v, ok := tbl.Walk(0x123456789, 0)
	if !ok || v != 55 {
		t.Fatalf("walk = (%d,%v)", v, ok)
	}
	if len(steps) != Levels {
		t.Fatalf("full walk took %d steps, want %d", len(steps), Levels)
	}
	for i, s := range steps {
		if s.Level != i {
			t.Fatalf("step %d has level %d", i, s.Level)
		}
		if s.EntryAddr>>12 != s.NodePhys {
			t.Fatalf("step %d entry %#x not inside node page %#x", i, s.EntryAddr, s.NodePhys)
		}
		if s.EntryAddr%EntrySize != 0 {
			t.Fatalf("step %d entry %#x misaligned", i, s.EntryAddr)
		}
	}
	if steps[0].NodePhys != tbl.RootPhys() {
		t.Fatal("walk did not start at root")
	}
}

func TestWalkWithPTWCacheSkip(t *testing.T) {
	tbl, _ := New("t", seqAlloc(100))
	tbl.Map(999, 1)
	steps, _, ok := tbl.Walk(999, 3) // PTE level cached up to PMD
	if !ok || len(steps) != 1 || steps[0].Level != 3 {
		t.Fatalf("skip-walk steps = %v ok=%v", steps, ok)
	}
	steps, _, ok = tbl.Walk(999, 2)
	if !ok || len(steps) != 2 {
		t.Fatalf("skip-2 walk steps = %d", len(steps))
	}
}

func TestWalkUnmappedFaultsEarly(t *testing.T) {
	tbl, _ := New("t", seqAlloc(0))
	// Nothing mapped: the walk reads the root entry and faults.
	steps, _, ok := tbl.Walk(12345, 0)
	if ok {
		t.Fatal("unmapped key resolved")
	}
	if len(steps) != 1 {
		t.Fatalf("fault walk took %d steps, want 1 (root only)", len(steps))
	}
	// Map a key sharing the top level; a different PUD subtree faults at level 1.
	tbl.Map(0, 9)
	steps, _, ok = tbl.Walk(1<<18, 0) // same PGD index, different PUD index
	if ok || len(steps) != 2 {
		t.Fatalf("partial fault walk = %d steps ok=%v, want 2 steps", len(steps), ok)
	}
}

func TestWalkStaleStartLevelFallsBack(t *testing.T) {
	tbl, _ := New("t", seqAlloc(0))
	// Ask to start at level 2 when no intermediate nodes exist: the walk
	// must degrade to a root walk rather than panic or lie.
	steps, _, ok := tbl.Walk(77, 2)
	if ok {
		t.Fatal("resolved unmapped key")
	}
	if len(steps) == 0 || steps[0].Level != 0 {
		t.Fatalf("stale start level not handled: %+v", steps)
	}
}

func TestSiblingKeysShareUpperNodes(t *testing.T) {
	tbl, _ := New("t", seqAlloc(0))
	tbl.Map(0, 1)
	n := tbl.TableNodes()
	tbl.Map(1, 2) // same PTE page
	if tbl.TableNodes() != n {
		t.Fatal("adjacent key allocated new table nodes")
	}
	tbl.Map(1<<9, 3) // different PTE page, shared upper levels
	if tbl.TableNodes() != n+1 {
		t.Fatalf("expected exactly one new node, got %d → %d", n, tbl.TableNodes())
	}
	tbl.Map(1<<27, 4) // different top-level subtree: three new nodes
	if tbl.TableNodes() != n+4 {
		t.Fatalf("expected three more nodes, got %d → %d", n+1, tbl.TableNodes())
	}
}

func TestNodePhysAt(t *testing.T) {
	tbl, _ := New("t", seqAlloc(500))
	tbl.Map(42, 1)
	if p, ok := tbl.NodePhysAt(42, 0); !ok || p != tbl.RootPhys() {
		t.Fatal("level-0 node is not root")
	}
	p3, ok := tbl.NodePhysAt(42, 3)
	if !ok {
		t.Fatal("PTE node missing")
	}
	steps, _, _ := tbl.Walk(42, 0)
	if steps[3].NodePhys != p3 {
		t.Fatal("NodePhysAt disagrees with Walk")
	}
	if _, ok := tbl.NodePhysAt(1<<30, 3); ok {
		t.Fatal("NodePhysAt invented a node")
	}
}

func TestAllocatorFailurePropagates(t *testing.T) {
	var fails AllocFunc = func() (uint64, error) { return 0, errors.New("pool exhausted") }
	if _, err := New("t", fails); err == nil {
		t.Fatal("root allocation failure ignored")
	}
	count := 0
	var flaky AllocFunc = func() (uint64, error) {
		count++
		if count > 1 {
			return 0, errors.New("pool exhausted")
		}
		return uint64(count), nil
	}
	tbl, err := New("t", flaky)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(5, 5); err == nil {
		t.Fatal("map with failing allocator succeeded")
	}
}

// Property: Map then Walk round-trips and a full walk is always ≤ 4 steps.
// A value above MaxValue — among uint32s, only 0xFFFFFFFF — does not fit a
// 32-bit entry as value + 1, and Map must refuse exactly that one.
func TestMapWalkRoundTripQuick(t *testing.T) {
	tbl, _ := New("t", seqAlloc(0))
	f := func(key uint64, val uint32) bool {
		key &= (1 << 36) - 1 // page numbers for 48-bit VAs
		err := tbl.Map(key, uint64(val))
		if val == 0xFFFFFFFF {
			return err != nil
		}
		if err != nil {
			return false
		}
		steps, v, ok := tbl.Walk(key, 0)
		return ok && v == uint64(val) && len(steps) == Levels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// quick draws 0xFFFFFFFF about once in 2^32 calls: check it directly.
	if !f(7, 0xFFFFFFFF) {
		t.Fatal("Map accepted 0xFFFFFFFF")
	}
}

// TestMapValueDomain: MaxValue (2^32 − 2) round-trips through Map, Lookup
// and Walk; MaxValue + 1 is refused before any node is allocated, leaving
// Mapped and TableNodes as they were, and so is any wider value.
func TestMapValueDomain(t *testing.T) {
	tbl, _ := New("t", seqAlloc(0))
	if err := tbl.Map(5, MaxValue); err != nil {
		t.Fatalf("Map(MaxValue): %v", err)
	}
	if v, ok := tbl.Lookup(5); !ok || v != MaxValue {
		t.Fatalf("Lookup = (%#x,%v), want (%#x,true)", v, ok, uint64(MaxValue))
	}
	if _, v, ok := tbl.Walk(5, 0); !ok || v != MaxValue {
		t.Fatalf("Walk = (%#x,%v), want (%#x,true)", v, ok, uint64(MaxValue))
	}
	mapped, nodes := tbl.Mapped(), tbl.TableNodes()
	// A key in a fresh top-level subtree would need three new nodes.
	for _, v := range []uint64{MaxValue + 1, 1 << 32, 1<<64 - 1} {
		if err := tbl.Map(1<<27, v); err == nil {
			t.Errorf("Map accepted %#x", v)
		}
	}
	if tbl.Mapped() != mapped || tbl.TableNodes() != nodes {
		t.Fatalf("refused Map changed the table: mapped %d → %d, nodes %d → %d",
			mapped, tbl.Mapped(), nodes, tbl.TableNodes())
	}
	if _, ok := tbl.Lookup(1 << 27); ok {
		t.Fatal("refused key resolves")
	}
}
