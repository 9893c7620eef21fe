package broker

import (
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
)

// TestShardedSingleShardMatchesPlainBroker pins the byte-identity contract:
// with one shard, every placement draw must equal the unsharded broker's.
// The golden-report CI job depends on this (default configs build a 1-shard
// Sharded where they used to build a Broker).
func TestShardedSingleShardMatchesPlainBroker(t *testing.T) {
	plain, err := New(layout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(layout(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		node := uint16(1 + i%3)
		pw, err1 := plain.AllocatePage(node)
		pg, err2 := sh.For(node).AllocatePage(node)
		if err1 != nil || err2 != nil {
			t.Fatalf("alloc %d: %v / %v", i, err1, err2)
		}
		if pw != pg {
			t.Fatalf("alloc %d: plain broker gave page %d, 1-shard Sharded gave %d", i, pw, pg)
		}
	}
	if plain.FreePages() != sh.Shard(0).FreePages() {
		t.Fatalf("free counts diverged: %d vs %d", plain.FreePages(), sh.Shard(0).FreePages())
	}
}

// TestShardedPartitionsDisjoint checks that every shard allocates only
// inside its own contiguous page range, the ranges tile the usable pool
// exactly, and a page freed on its shard is reusable there.
func TestShardedPartitionsDisjoint(t *testing.T) {
	const n = 4
	sh, err := NewSharded(layout(), 7, n)
	if err != nil {
		t.Fatal(err)
	}
	usable := layout().UsableFAMPages()
	var total uint64
	for i := 0; i < n; i++ {
		total += sh.Shard(i).FreePages()
	}
	if total != usable {
		t.Fatalf("shard pools cover %d pages, want %d", total, usable)
	}
	for i := 0; i < n; i++ {
		b := sh.Shard(i)
		lo := usable * uint64(i) / n
		hi := usable * uint64(i+1) / n
		var pages []addr.FPage
		for j := 0; j < 128; j++ {
			p, err := b.AllocatePage(uint16(i + 1))
			if err != nil {
				t.Fatalf("shard %d alloc %d: %v", i, j, err)
			}
			if uint64(p) < lo || uint64(p) >= hi {
				t.Fatalf("shard %d allocated page %d outside its range [%d, %d)", i, p, lo, hi)
			}
			pages = append(pages, p)
		}
		if err := b.FreePage(uint16(i+1), pages[0]); err != nil {
			t.Fatalf("shard %d free: %v", i, err)
		}
		if got := b.OwnedPages(uint16(i + 1)); got != 127 {
			t.Fatalf("shard %d owned = %d, want 127", i, got)
		}
	}
}

// TestShardedForMapping pins the node→shard round-robin: node IDs start at
// 1, node 0 (broker-owned) is served by shard 0.
func TestShardedForMapping(t *testing.T) {
	sh, err := NewSharded(layout(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[uint16]*Broker{
		0: sh.Shard(0), 1: sh.Shard(0), 2: sh.Shard(1),
		3: sh.Shard(0), 4: sh.Shard(1),
	}
	for node, want := range cases {
		if got := sh.For(node); got != want {
			t.Errorf("For(%d) = shard with base %d, want base %d", node, got.base, want.base)
		}
	}
}

// TestShardRejectsSharedRegions: shared 1GB regions are carved from the top
// of the whole pool, which only a full-pool broker can do coherently.
func TestShardRejectsSharedRegions(t *testing.T) {
	sh, err := NewSharded(layout(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sh.Shard(i).AllocateSharedRegion(acm.PermR); err == nil {
			t.Errorf("shard %d accepted a shared-region carve", i)
		}
	}
	one, err := NewSharded(layout(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Shard(0).AllocateSharedRegion(acm.PermR); err != nil {
		t.Errorf("full-pool shard rejected a shared-region carve: %v", err)
	}
}

// TestShardedShardCountBounds pins normalization and the too-many-shards
// error.
func TestShardedShardCountBounds(t *testing.T) {
	sh, err := NewSharded(layout(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 1 {
		t.Fatalf("n=0 gave %d shards, want 1", sh.Shards())
	}
	usable := layout().UsableFAMPages()
	if _, err := NewSharded(layout(), 1, int(usable+1)); err == nil {
		t.Fatal("accepted more shards than pages")
	}
}
