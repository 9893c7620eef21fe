package stu

import (
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/broker"
	"deact/internal/sim"
)

func layout() addr.Layout {
	return addr.Layout{DRAMSize: 1 << 30, FAMZoneSize: 2 << 30, FAMSize: 4 << 30, ACMBits: 16}
}

// fixture wires an STU to a broker-backed FAM page table with a counting
// fixed-latency FAM access function.
type fixture struct {
	b        *broker.Broker
	s        *STU
	famReads uint64
}

func newFixture(t testing.TB, cfg Config, nodeID uint16) *fixture {
	t.Helper()
	b, err := broker.New(layout(), 11)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := b.NodeTable(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{b: b}
	var fam FAMAccessFunc = func(now sim.Time, a addr.FAddr, write bool) sim.Time {
		f.famReads++
		return now + sim.US(1) // 500ns each way, service folded in
	}
	var fault MapFunc = func(np addr.NPPage) (addr.FPage, error) { return b.MapForNode(nodeID, np) }
	s, err := New(cfg, nodeID, layout(), b.Meta(), tbl, fam, fault)
	if err != nil {
		t.Fatal(err)
	}
	f.s = s
	return f
}

func defaultCfg(org Organization) Config {
	return Config{Entries: 1024, Ways: 8, Org: org, ACMBits: 16, PTWCacheEntries: 32, LookupTime: sim.NS(2)}
}

func TestConfigValidate(t *testing.T) {
	if err := defaultCfg(OrgIFAM).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Entries: 0, Ways: 1, ACMBits: 16},
		{Entries: 8, Ways: 0, ACMBits: 16},
		{Entries: 9, Ways: 2, ACMBits: 16},
		{Entries: 8, Ways: 2, ACMBits: 12},
		{Entries: 8, Ways: 2, ACMBits: 16, PairsPerWay: 4},
		{Entries: 24, Ways: 8, ACMBits: 16},  // 3 sets: not a power of two
		{Entries: 768, Ways: 8, ACMBits: 16}, // deact-sim -stu 768
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOrganizationString(t *testing.T) {
	for o, want := range map[Organization]string{OrgIFAM: "I-FAM", OrgDeACTW: "DeACT-W", OrgDeACTN: "DeACT-N", Organization(7): "Organization(7)"} {
		if o.String() != want {
			t.Errorf("%d String = %q", int(o), o.String())
		}
	}
}

func TestGeometryDerivations(t *testing.T) {
	for _, tc := range []struct {
		bits  uint
		pages uint64
		pairs int
	}{{8, 8, 2}, {16, 4, 2}, {32, 2, 1}} {
		c := Config{ACMBits: tc.bits}
		if c.pagesPerWay() != tc.pages {
			t.Errorf("ACMBits=%d pagesPerWay=%d want %d", tc.bits, c.pagesPerWay(), tc.pages)
		}
		if c.pairsPerWay() != tc.pairs {
			t.Errorf("ACMBits=%d pairsPerWay=%d want %d", tc.bits, c.pairsPerWay(), tc.pairs)
		}
	}
	c := Config{ACMBits: 8, PairsPerWay: 3}
	if c.pairsPerWay() != 3 {
		t.Error("PairsPerWay override ignored")
	}
}

func TestIFAMTranslateMissThenHit(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgIFAM), 1)
	np := addr.NPPage(0x40000) // in FAM zone for 1GB DRAM
	// The OS installs the mapping at first touch (allocation is off the
	// translation critical path); the STU then finds a complete table.
	if _, err := f.b.MapForNode(1, np); err != nil {
		t.Fatal(err)
	}
	done, fp, d, err := f.s.TranslateAndVerify(0, np, acm.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("own page denied: %+v", d)
	}
	st := f.s.Stats()
	if st.TranslationMisses != 1 || st.TranslationHits != 0 {
		t.Fatalf("miss not recorded: %+v", st)
	}
	// Cold walk: 4 PTE steps + 1 ACM fetch = 5 FAM accesses minimum.
	if f.famReads < 5 {
		t.Fatalf("cold I-FAM miss did %d FAM reads, want ≥5", f.famReads)
	}
	if done < sim.US(5) {
		t.Fatalf("cold miss completed too fast: %v", done)
	}
	// Second access: pure hit, no new FAM traffic.
	before := f.famReads
	done2, fp2, d2, err := f.s.TranslateAndVerify(done, np, acm.PermR)
	if err != nil || !d2.Allowed || fp2 != fp {
		t.Fatalf("hit path broken: %v %v", err, d2)
	}
	if f.famReads != before {
		t.Fatal("I-FAM hit generated FAM traffic")
	}
	if done2 != done+sim.NS(2) {
		t.Fatalf("hit latency %v, want lookup time only", done2-done)
	}
	if st := f.s.Stats(); st.TranslationHits != 1 || st.TranslationMisses != 1 {
		t.Fatalf("translation hits/misses = %d/%d, want 1/1", st.TranslationHits, st.TranslationMisses)
	}
}

func TestIFAMRejectsWrongOrgCalls(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTW), 1)
	if _, _, _, err := f.s.TranslateAndVerify(0, 1, acm.PermR); err == nil {
		t.Fatal("TranslateAndVerify accepted on DeACT-W STU")
	}
}

func TestDeACTUnmappedThenVerify(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 2)
	np := addr.NPPage(0x50000)
	done, fp, d, err := f.s.HandleUnmapped(0, np, acm.PermRW)
	if err != nil || !d.Allowed {
		t.Fatalf("unmapped handling failed: %v %+v", err, d)
	}
	st := f.s.Stats()
	if st.Walks != 1 || st.PTWSteps == 0 {
		t.Fatalf("walk not recorded: %+v", st)
	}
	if st.ACMMisses != 1 || st.ACMFetches != 1 {
		t.Fatalf("cold ACM not fetched: %+v", st)
	}
	// Now the mapped fast path: verification only, ACM cached.
	before := f.famReads
	done2, d2 := f.s.VerifyMapped(done, fp, acm.PermRW)
	if !d2.Allowed {
		t.Fatalf("verified access denied: %+v", d2)
	}
	if f.famReads != before {
		t.Fatal("warm verify generated FAM traffic")
	}
	if got := f.s.Stats().ACMHits; got != 1 {
		t.Fatalf("ACM hits = %d, want 1", got)
	}
	if done2 != done+sim.NS(2) {
		t.Fatalf("warm verify latency %v", done2-done)
	}
}

func TestVerifyDeniesForeignPage(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 3)
	// Node 4 owns this page; node 3's STU must deny even a "mapped" (forged)
	// request — the decoupled-translation security property.
	foreign, err := f.b.AllocatePage(4)
	if err != nil {
		t.Fatal(err)
	}
	_, d := f.s.VerifyMapped(0, foreign, acm.PermR)
	if d.Allowed {
		t.Fatal("foreign page access allowed — access control broken")
	}
	if f.s.Stats().Denied != 1 {
		t.Fatal("denial not counted")
	}
}

func TestVerifySharedBitmapPath(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 5)
	huge, err := f.b.AllocateSharedRegion(acm.PermR)
	if err != nil {
		t.Fatal(err)
	}
	f.b.Grant(huge, 5, acm.PermR)
	page := addr.FPage(huge*addr.PagesPerHuge + 3)
	_, d := f.s.VerifyMapped(0, page, acm.PermR)
	if !d.Allowed || !d.Shared {
		t.Fatalf("granted shared access denied: %+v", d)
	}
	if f.s.Stats().BitmapFetches != 1 {
		t.Fatalf("bitmap fetches = %d, want 1", f.s.Stats().BitmapFetches)
	}
	// Write needs a write grant.
	_, d = f.s.VerifyMapped(0, page, acm.PermRW)
	if d.Allowed {
		t.Fatal("read-only grant allowed a write")
	}
}

func TestDeACTWContiguousCoverage(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTW), 6)
	// Allocate enough pages to find two in the same group of 4.
	var pages []addr.FPage
	for i := 0; i < 200; i++ {
		p, err := f.b.AllocatePage(6)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	var a, b addr.FPage
	found := false
outer:
	for i, p := range pages {
		for _, q := range pages[i+1:] {
			if p != q && uint64(p)/4 == uint64(q)/4 {
				a, b = p, q
				found = true
				break outer
			}
		}
	}
	if !found {
		t.Skip("random placement yielded no same-group pair")
	}
	f.s.VerifyMapped(0, a, acm.PermR) // miss, fills group
	_, d := f.s.VerifyMapped(0, b, acm.PermR)
	if !d.Allowed {
		t.Fatal("same-group page denied")
	}
	st := f.s.Stats()
	if st.ACMHits != 1 || st.ACMMisses != 1 {
		t.Fatalf("W-coverage not shared within group: %+v", st)
	}
}

func TestDeACTNDoublesEffectiveEntries(t *testing.T) {
	// With 16-bit ACM, DeACT-N holds Entries×2 independent pages while
	// DeACT-W holds Entries groups. Under random placement, N must beat W
	// for a working set near the cache size.
	cfgW := defaultCfg(OrgDeACTW)
	cfgW.Entries, cfgW.Ways = 64, 8
	cfgN := defaultCfg(OrgDeACTN)
	cfgN.Entries, cfgN.Ways = 64, 8
	fw := newFixture(t, cfgW, 7)
	fn := newFixture(t, cfgN, 7)
	var pw, pn []addr.FPage
	for i := 0; i < 100; i++ {
		p1, err := fw.b.AllocatePage(7)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := fn.b.AllocatePage(7)
		if err != nil {
			t.Fatal(err)
		}
		pw, pn = append(pw, p1), append(pn, p2)
	}
	for round := 0; round < 10; round++ {
		for i := range pw {
			fw.s.VerifyMapped(0, pw[i], acm.PermR)
			fn.s.VerifyMapped(0, pn[i], acm.PermR)
		}
	}
	// Both STUs verified the same number of pages, so hit counts compare
	// as hit rates do.
	n, w := fn.s.Stats(), fw.s.Stats()
	if n.ACMHits+n.ACMMisses != w.ACMHits+w.ACMMisses {
		t.Fatalf("lookup counts differ: DeACT-N %d, DeACT-W %d", n.ACMHits+n.ACMMisses, w.ACMHits+w.ACMMisses)
	}
	if n.ACMHits <= w.ACMHits {
		t.Fatalf("DeACT-N ACM hits %d not above DeACT-W %d under random placement", n.ACMHits, w.ACMHits)
	}
}

func TestPTWCacheShortensSecondWalk(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 8)
	for _, np := range []addr.NPPage{0x60000, 0x60001} {
		if _, err := f.b.MapForNode(8, np); err != nil {
			t.Fatal(err)
		}
	}
	f.s.HandleUnmapped(0, 0x60000, acm.PermR)
	first := f.s.Stats().PTWSteps
	if first != 4 {
		t.Fatalf("cold walk took %d steps, want 4", first)
	}
	// Adjacent node page shares the PTE page: walk should need 1 step.
	f.s.HandleUnmapped(0, 0x60001, acm.PermR)
	second := f.s.Stats().PTWSteps - first
	if second != 1 {
		t.Fatalf("adjacent walk took %d steps, want 1", second)
	}
}

func TestBrokerFaultPath(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 9)
	done, fp, d, err := f.s.HandleUnmapped(0, 0x70000, acm.PermR)
	if err != nil || !d.Allowed {
		t.Fatalf("fault path failed: %v", err)
	}
	if f.s.Stats().BrokerFaults != 1 {
		t.Fatal("broker fault not counted")
	}
	if done == 0 || fp == 0 && !d.Allowed {
		t.Fatal("fault path returned nothing")
	}
	// No fault handler: error.
	tbl, _ := f.b.NodeTable(10)
	s2, err := New(defaultCfg(OrgDeACTN), 10, layout(), f.b.Meta(), tbl,
		FAMAccessFunc(func(now sim.Time, a addr.FAddr, w bool) sim.Time { return now }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s2.HandleUnmapped(0, 0x70000, acm.PermR); err == nil {
		t.Fatal("missing fault handler not reported")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	f := newFixture(t, defaultCfg(OrgDeACTN), 11)
	_, fp, _, err := f.s.HandleUnmapped(0, 0x80000, acm.PermR)
	if err != nil {
		t.Fatal(err)
	}
	f.s.InvalidateACM(fp)
	before := f.s.Stats().ACMMisses
	f.s.VerifyMapped(0, fp, acm.PermR)
	if f.s.Stats().ACMMisses != before+1 {
		t.Fatal("invalidated ACM still hit")
	}
	f.s.Flush()
	before = f.s.Stats().ACMMisses
	f.s.VerifyMapped(0, fp, acm.PermR)
	if f.s.Stats().ACMMisses != before+1 {
		t.Fatal("flush did not clear ACM cache")
	}
}

func TestNewValidatesDependencies(t *testing.T) {
	if _, err := New(defaultCfg(OrgIFAM), 1, layout(), nil, nil, nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestTrustReadsSkipsReadVerification(t *testing.T) {
	cfg := defaultCfg(OrgDeACTN)
	cfg.TrustReads = true
	f := newFixture(t, cfg, 12)
	foreign, err := f.b.AllocatePage(13)
	if err != nil {
		t.Fatal(err)
	}
	// Encrypted-memory model: the read is allowed (ciphertext is useless)
	// and costs no metadata traffic…
	before := f.famReads
	_, d := f.s.VerifyMapped(0, foreign, acm.PermR)
	if !d.Allowed {
		t.Fatal("trusted read denied")
	}
	if f.famReads != before {
		t.Fatal("trusted read fetched metadata")
	}
	if f.s.Stats().TrustedReads != 1 {
		t.Fatal("trusted read not counted")
	}
	// …but a write to the foreign page is still blocked.
	_, d = f.s.VerifyMapped(0, foreign, acm.PermRW)
	if d.Allowed {
		t.Fatal("trusted-reads mode allowed a foreign WRITE — tampering possible")
	}
}

// BenchmarkSTU measures the STU's per-FAM-access paths at steady state. Each
// stream sends three of four requests to a hot set that fits the 1024-entry
// cache and the fourth to a cold range four times its size, so hits, misses,
// walks and ACM fetches mix. Both paths must allocate nothing.
func BenchmarkSTU(b *testing.B) {
	const hot, cold = 512, 4096
	pick := func(i int) int {
		if i%4 == 3 {
			return hot + (i/4)%cold
		}
		return i % hot
	}
	b.Run("IFAM-TranslateAndVerify", func(b *testing.B) {
		f := newFixture(b, defaultCfg(OrgIFAM), 1)
		pages := make([]addr.NPPage, hot+cold)
		for i := range pages {
			pages[i] = addr.NPPage(0x40000 + 3*i) // FAM zone, spread over PTE pages
			if _, err := f.b.MapForNode(1, pages[i]); err != nil {
				b.Fatal(err)
			}
		}
		var t sim.Time
		for i := 0; i < 2*len(pages); i++ {
			t, _, _, _ = f.s.TranslateAndVerify(t, pages[pick(i)], acm.PermR)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if t, _, _, err = f.s.TranslateAndVerify(t, pages[pick(i)], acm.PermR); err != nil {
				b.Fatal(err)
			}
		}
		st := f.s.Stats()
		b.ReportMetric(float64(st.TranslationHits)/float64(st.TranslationHits+st.TranslationMisses), "hit_rate")
	})
	b.Run("DeACTN-VerifyMapped", func(b *testing.B) {
		f := newFixture(b, defaultCfg(OrgDeACTN), 2)
		pages := make([]addr.FPage, hot+cold)
		for i := range pages {
			p, err := f.b.AllocatePage(2)
			if err != nil {
				b.Fatal(err)
			}
			pages[i] = p
		}
		var t sim.Time
		for i := 0; i < 2*len(pages); i++ {
			t, _ = f.s.VerifyMapped(t, pages[pick(i)], acm.PermRW)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var d acm.Decision
			if t, d = f.s.VerifyMapped(t, pages[pick(i)], acm.PermRW); !d.Allowed {
				b.Fatalf("own page denied: %+v", d)
			}
		}
		st := f.s.Stats()
		b.ReportMetric(float64(st.ACMHits)/float64(st.ACMHits+st.ACMMisses), "hit_rate")
	})
}
