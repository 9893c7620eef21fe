package acm

import (
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

func BenchmarkACMCheck(b *testing.B) {
	l := addr.Layout{DRAMSize: 64 << 20, FAMZoneSize: 448 << 20, FAMSize: 1 << 30, ACMBits: 16}
	s := NewStore(l)
	for p := addr.FPage(0); p < 4096; p++ {
		s.Set(p, Entry{Owner: uint16(p) % 63, Perm: PermRWX})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDecision = s.Check(addr.FPage(i)%4096, uint16(i)%63, PermR)
	}
}
