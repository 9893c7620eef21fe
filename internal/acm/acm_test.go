package acm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"deact/internal/addr"
)

func layout() addr.Layout {
	return addr.Layout{DRAMSize: 1 << 30, FAMZoneSize: 4 << 30, FAMSize: 16 << 30, ACMBits: 16}
}

func TestPermPredicates(t *testing.T) {
	cases := []struct {
		p       Perm
		r, w, x bool
		s       string
	}{
		{PermNone, false, false, false, "----"},
		{PermR, true, false, false, "r---"},
		{PermRW, true, true, false, "rw--"},
		{PermRWX, true, true, true, "rwx-"},
	}
	for _, c := range cases {
		if c.p.CanRead() != c.r || c.p.CanWrite() != c.w || c.p.CanExec() != c.x {
			t.Errorf("%v predicates wrong", c.p)
		}
		if c.p.String() != c.s {
			t.Errorf("%v String = %q", c.p, c.p.String())
		}
	}
	if Perm(9).String() != "Perm(9)" {
		t.Error("out-of-range Perm String wrong")
	}
}

func TestSharedOwnerWidths(t *testing.T) {
	// Paper §III-A: 16-bit metadata → 14 ID bits → up to 16383 nodes.
	if SharedOwner(16) != 0x3FFF || MaxNodes(16) != 16383 {
		t.Fatalf("16-bit marker %#x nodes %d", SharedOwner(16), MaxNodes(16))
	}
	// The paper quotes 8191 nodes for 8-bit metadata, which does not fit
	// the encoding it defines (width-2 ID bits); we implement the encoding:
	// 6 ID bits → 63 usable nodes.
	if SharedOwner(8) != 63 || MaxNodes(8) != 63 {
		t.Fatalf("8-bit marker %#x nodes %d", SharedOwner(8), MaxNodes(8))
	}
	// 32-bit ACM has a 30-bit ID field; node IDs are uint16 throughout the
	// simulator, so the marker saturates.
	if SharedOwner(32) != 0xFFFF {
		t.Fatalf("32-bit marker %#x", SharedOwner(32))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{Owner: 1234, Perm: PermRW}
	raw, err := Encode(e, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(raw, 16); got != e {
		t.Fatalf("round trip %+v → %+v", e, got)
	}
	if _, err := Encode(Entry{Owner: 20000}, 16); err == nil {
		t.Fatal("oversized owner accepted for 16-bit ACM")
	}
	if _, err := Encode(Entry{Owner: 100}, 8); err == nil {
		t.Fatal("owner 100 must not fit 6-bit ID space")
	}
}

func TestOwnerCheck(t *testing.T) {
	s := NewStore(layout())
	if err := s.Set(7, Entry{Owner: 3, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	if d := s.Check(7, 3, PermR); !d.Allowed || d.Shared || d.BitmapFetch {
		t.Fatalf("owner read denied: %+v", d)
	}
	if d := s.Check(7, 3, PermRW); !d.Allowed {
		t.Fatal("owner write denied")
	}
	if d := s.Check(7, 3, PermRWX); d.Allowed {
		t.Fatal("exec allowed with rw-- entry")
	}
	if d := s.Check(7, 4, PermR); d.Allowed || d.DeniedReason == "" {
		t.Fatalf("foreign node allowed: %+v", d)
	}
	// Unallocated page denies everyone, including node 0.
	if d := s.Check(99, 0, PermR); d.Allowed {
		t.Fatal("unallocated page readable")
	}
}

func TestSharedRegionCheck(t *testing.T) {
	s := NewStore(layout())
	const huge = 2
	s.MarkShared(huge, PermR)
	s.Grant(huge, 5, PermRW)
	s.Grant(huge, 6, PermR)

	page := addr.FPage(huge*addr.PagesPerHuge + 17)
	if d := s.Check(page, 5, PermRW); !d.Allowed || !d.Shared || !d.BitmapFetch {
		t.Fatalf("granted writer denied: %+v", d)
	}
	if d := s.Check(page, 6, PermR); !d.Allowed {
		t.Fatal("granted reader denied")
	}
	if d := s.Check(page, 6, PermRW); d.Allowed {
		t.Fatal("reader allowed to write shared page")
	}
	if d := s.Check(page, 7, PermR); d.Allowed {
		t.Fatal("ungranted node allowed on shared page")
	}
	s.Revoke(huge, 5)
	if d := s.Check(page, 5, PermR); d.Allowed {
		t.Fatal("revoked node still allowed")
	}
}

func TestMarkSharedCoversWholeRegion(t *testing.T) {
	s := NewStore(layout())
	s.MarkShared(0, PermR)
	for _, off := range []uint64{0, 1, addr.PagesPerHuge - 1} {
		if !s.IsSharedMarker(s.Entry(addr.FPage(off))) {
			t.Fatalf("sub-page %d not marked shared", off)
		}
	}
	if s.IsSharedMarker(s.Entry(addr.FPage(addr.PagesPerHuge))) {
		t.Fatal("marker leaked into next region")
	}
}

func TestClear(t *testing.T) {
	s := NewStore(layout())
	s.Set(1, Entry{Owner: 2, Perm: PermRWX})
	s.Clear(1)
	if d := s.Check(1, 2, PermR); d.Allowed {
		t.Fatal("cleared page still accessible")
	}
	if s.Writes() == 0 {
		t.Fatal("writes not counted")
	}
}

// Property: only the owner (with sufficient perm) passes Check on
// non-shared pages, for arbitrary owners/requesters.
func TestOwnershipQuick(t *testing.T) {
	s := NewStore(layout())
	f := func(page uint16, owner, requester uint16, permBits uint8) bool {
		owner &= 0x3FFE // avoid the shared marker
		requester &= 0x3FFF
		perm := Perm(permBits % 4)
		p := addr.FPage(page)
		if err := s.Set(p, Entry{Owner: owner, Perm: perm}); err != nil {
			return false
		}
		d := s.Check(p, requester, PermR)
		if requester != owner {
			return !d.Allowed
		}
		return d.Allowed == perm.CanRead()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// benchDecision keeps BenchmarkACMCheck's result live.
var benchDecision Decision

// BenchmarkACMCheck measures the per-FAM-access policy lookup. The allowed
// cases scatter their pages across a 16GB pool the way the broker's random
// placement does, at the occupancies of a 1-node sp run (2k entries) and a
// 2-node sssp run (23k); dense4k is the old contiguous layout. denied
// measures the refusal path, which formats its reason.
func BenchmarkACMCheck(b *testing.B) {
	l := layout()
	scattered := func(n int) []addr.FPage {
		rng := rand.New(rand.NewSource(1))
		seen := map[addr.FPage]bool{}
		var pages []addr.FPage
		for len(pages) < n {
			p := addr.FPage(rng.Int63n(int64(l.TotalFAMPages())))
			if !seen[p] {
				seen[p] = true
				pages = append(pages, p)
			}
		}
		return pages
	}
	dense := make([]addr.FPage, 4096)
	for i := range dense {
		dense[i] = addr.FPage(i)
	}
	for _, bc := range []struct {
		name   string
		pages  []addr.FPage
		denied bool
	}{
		{"allowed-2k", scattered(2048), false},
		{"allowed-23k", scattered(23 * 1024), false},
		{"dense4k", dense, false},
		{"denied", dense, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewStore(l)
			owner := func(p addr.FPage) uint16 { return uint16(p % 63) }
			for _, p := range bc.pages {
				s.Set(p, Entry{Owner: owner(p), Perm: PermRWX})
			}
			// Visit the pages in a fixed shuffled order, as a run's
			// accesses do, and check each by its owner (or its neighbour
			// node, for the denied path).
			order := slices.Clone(bc.pages)
			rand.New(rand.NewSource(2)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			nodes := make([]uint16, len(order))
			for i, p := range order {
				nodes[i] = owner(p)
				if bc.denied {
					nodes[i]++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(order)
				benchDecision = s.Check(order[k], nodes[k], PermR)
			}
			if benchDecision.Allowed == bc.denied {
				b.Fatalf("last check %+v, want allowed=%v", benchDecision, !bc.denied)
			}
		})
	}
}

// TestSlotPackingRoundTrips holds the 4-byte slot to the {Entry, bool}
// struct it replaced: at the 8-, 16- and 18-bit ACM widths (the last
// saturates the owner at 0xFFFF), every Set, Clear and MarkShared leaves
// Entry and Has answering what a map of struct slots answers, including
// an explicitly set zero Entry, which is present, against a cleared page,
// which is not.
func TestSlotPackingRoundTrips(t *testing.T) {
	type refSlot struct {
		e  Entry
		ok bool
	}
	for _, bits := range []uint{8, 16, 18} {
		l := layout()
		l.ACMBits = bits
		s := NewStore(l)
		ref := map[addr.FPage]refSlot{}
		rng := rand.New(rand.NewSource(int64(bits)))
		maxOwner := int(SharedOwner(bits))
		// Pages in three 1GB regions, each sparsely filled.
		page := func() addr.FPage {
			return addr.FPage(uint64(rng.Intn(3))*addr.PagesPerHuge + uint64(rng.Intn(64)))
		}
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(100); {
			case r < 60:
				p := page()
				e := Entry{Owner: uint16(rng.Intn(maxOwner + 1)), Perm: Perm(rng.Intn(4))}
				switch rng.Intn(4) {
				case 0:
					e = Entry{}
				case 1:
					e.Owner = uint16(maxOwner) // the shared marker
				}
				if err := s.Set(p, e); err != nil {
					t.Fatalf("bits %d: Set(%d, %+v): %v", bits, p, e, err)
				}
				ref[p] = refSlot{e: e, ok: true}
			case r < 90:
				p := page()
				s.Clear(p)
				delete(ref, p)
			case r < 91:
				huge := uint64(rng.Intn(3))
				perm := Perm(rng.Intn(4))
				s.MarkShared(huge, perm)
				for i := range uint64(64) {
					ref[addr.FPage(huge*addr.PagesPerHuge+i)] = refSlot{e: Entry{Owner: SharedOwner(bits), Perm: perm}, ok: true}
				}
			}
			p := page()
			want := ref[p]
			if got := s.Entry(p); got != want.e {
				t.Fatalf("bits %d op %d: Entry(%d) = %+v, reference %+v", bits, op, p, got, want.e)
			}
			if got := s.Has(p); got != want.ok {
				t.Fatalf("bits %d op %d: Has(%d) = %v, reference %v", bits, op, p, got, want.ok)
			}
		}
	}
}
