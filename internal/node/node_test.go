package node

import (
	"strings"
	"testing"

	"deact/internal/addr"
	"deact/internal/broker"
	"deact/internal/cache"
	"deact/internal/fabric"
	"deact/internal/memdev"
	"deact/internal/sim"
	"deact/internal/stu"
	"deact/internal/tlb"
	"deact/internal/translator"
	"deact/internal/workload"
)

func testLayout() addr.Layout {
	return addr.Layout{DRAMSize: 64 << 20, FAMZoneSize: 256 << 20, FAMSize: 1 << 30, ACMBits: 16}
}

func testConfig(id uint16, scheme Scheme) Config {
	org := stu.OrgIFAM
	switch scheme {
	case DeACTW:
		org = stu.OrgDeACTW
	case DeACTN:
		org = stu.OrgDeACTN
	}
	return Config{
		ID: id, Cores: 1, Scheme: scheme, Layout: testLayout(),
		LocalEveryN: 5,
		CycleTime:   500, // ps, 2GHz
		L1Lat:       sim.NS(1), L2Lat: sim.NS(4), L3Lat: sim.NS(10), TLBL2Lat: sim.NS(2),
		Hierarchy: cache.HierarchyConfig{Cores: 1, L1Size: 32 << 10, L1Ways: 8, L2Size: 256 << 10, L2Ways: 8, L3Size: 1 << 20, L3Ways: 16},
		MMU:       tlb.MMUConfig{L1Entries: 32, L1Ways: 4, L2Entries: 256, L2Ways: 8, PTWEntries: 32},
		DRAM: memdev.Config{Name: "dram", Banks: 8, ReadLatency: sim.NS(60),
			WriteLatency: sim.NS(60), PortLatency: sim.NS(1)},
		STU: stu.Config{Entries: 1024, Ways: 8, Org: org, ACMBits: 16,
			PTWCacheEntries: 32, LookupTime: sim.NS(2)},
		Translator: translator.Config{CacheBytes: 64 << 10, Outstanding: 128, TagMatchTime: 500},
		Seed:       7,
	}
}

// rig wires a node to a private broker/fabric/FAM.
type rig struct {
	n   *Node
	brk *broker.Broker
	fam *memdev.Device
}

func newRig(t *testing.T, scheme Scheme) *rig {
	t.Helper()
	brk, err := broker.New(testLayout(), 99)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(fabric.Config{Latency: sim.NS(500), PacketTime: sim.NS(2)})
	fam := memdev.New(memdev.Config{Name: "fam", Banks: 32, ReadLatency: sim.NS(60),
		WriteLatency: sim.NS(150), PortLatency: sim.NS(2)})
	n, err := New(testConfig(1, scheme), brk, fab, fam)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{n: n, brk: brk, fam: fam}
}

func op(a addr.VAddr, write bool) workload.Op {
	return workload.Op{Addr: a, Write: write}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{EFAM: "E-FAM", IFAM: "I-FAM", DeACTW: "DeACT-W", DeACTN: "DeACT-N", Scheme(9): "Scheme(9)"} {
		if s.String() != want {
			t.Errorf("%d → %q", int(s), s.String())
		}
	}
	if EFAM.UsesDeACT() || IFAM.UsesDeACT() || !DeACTW.UsesDeACT() || !DeACTN.UsesDeACT() {
		t.Fatal("UsesDeACT wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	c := testConfig(1, EFAM)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Cores = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	c = testConfig(1, EFAM)
	c.LocalEveryN = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero LocalEveryN accepted")
	}
	c = testConfig(1, EFAM)
	c.CycleTime = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cycle accepted")
	}
	if _, err := New(testConfig(1, EFAM), nil, nil, nil); err == nil {
		t.Fatal("nil shared components accepted")
	}
}

// TestNewRejectsFAMPortSlowerThanLink: famRT charges the FAM port as a
// fixed delay, exact only while link-paced arrivals are a port service
// apart, so New refuses a port slower than the fabric's packet time —
// a zero packet time included — and accepts equality.
func TestNewRejectsFAMPortSlowerThanLink(t *testing.T) {
	for _, tc := range []struct {
		packet sim.Time
		ok     bool
	}{{sim.NS(2), true}, {sim.NS(50), true}, {sim.NS(2) - 1, false}, {0, false}} {
		brk, err := broker.New(testLayout(), 99)
		if err != nil {
			t.Fatal(err)
		}
		fab := fabric.New(fabric.Config{Latency: sim.NS(500), PacketTime: tc.packet})
		fam := memdev.New(memdev.Config{Name: "fam", Banks: 32, ReadLatency: sim.NS(60),
			WriteLatency: sim.NS(150), PortLatency: sim.NS(2)})
		_, err = New(testConfig(1, IFAM), brk, fab, fam)
		if (err == nil) != tc.ok {
			t.Errorf("packet time %d ps with a 2 ns FAM port: New error %v, want accepted=%v", tc.packet, err, tc.ok)
		}
	}
}

func TestFirstTouchAllocatesAndCompletes(t *testing.T) {
	for _, scheme := range []Scheme{EFAM, IFAM, DeACTW, DeACTN} {
		r := newRig(t, scheme)
		done, err := r.n.Access(0, 0, op(0x10_0000_0000, false))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if done == 0 {
			t.Fatalf("%v: zero-latency access", scheme)
		}
		st := r.n.Stats()
		if st.OSFaults == 0 || st.NodePTWalks == 0 {
			t.Fatalf("%v: first touch did not fault: %+v", scheme, st)
		}
	}
}

func TestWarmAccessIsCheapAndLocalZoneUsesDRAM(t *testing.T) {
	r := newRig(t, EFAM)
	// Touch enough pages to land one in the local zone (every 5th page).
	var local addr.VAddr
	found := false
	for i := 0; i < 10 && !found; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.PageSize)
		if _, err := r.n.Access(0, 0, op(va, false)); err != nil {
			t.Fatal(err)
		}
		if r.n.Stats().DRAMData > 0 {
			local, found = va, true
		}
	}
	if !found {
		t.Fatal("no access reached local DRAM under the 20% policy")
	}
	_ = local
}

func TestTwentyEightyPolicy(t *testing.T) {
	osa := newOSAllocator(testLayout(), 0, 5)
	for i := 0; i < 1000; i++ {
		if _, err := osa.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	localFrac := float64(osa.LocalAllocated()) / 1000
	if localFrac < 0.18 || localFrac > 0.22 {
		t.Fatalf("local fraction %.3f, want ≈0.20", localFrac)
	}
}

func TestOSAllocatorSpillsAndExhausts(t *testing.T) {
	l := addr.Layout{DRAMSize: 4 * addr.PageSize, FAMZoneSize: 4 * addr.PageSize, FAMSize: 64 << 20, ACMBits: 16}
	osa := newOSAllocator(l, 0, 5)
	seen := map[addr.NPPage]bool{}
	for i := 0; i < 8; i++ {
		p, err := osa.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("page %d handed out twice", p)
		}
		seen[p] = true
	}
	if _, err := osa.Alloc(); err == nil {
		t.Fatal("exhaustion not reported")
	}
}

func TestIFAMSlowerThanEFAMOnColdPages(t *testing.T) {
	// Touch many distinct pages: I-FAM pays STU walks over the fabric.
	var times [2]sim.Time
	for i, scheme := range []Scheme{EFAM, IFAM} {
		r := newRig(t, scheme)
		var now sim.Time
		for p := 0; p < 300; p++ {
			va := addr.VAddr(0x10_0000_0000 + uint64(p)*addr.PageSize)
			done, err := r.n.Access(now, 0, op(va, false))
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		times[i] = now
	}
	if times[1] < times[0]*2 {
		t.Fatalf("I-FAM %v not ≫ E-FAM %v on cold pages", times[1], times[0])
	}
}

func TestDeACTCountsTranslationTraffic(t *testing.T) {
	r := newRig(t, DeACTN)
	var now sim.Time
	for p := 0; p < 50; p++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(p)*addr.PageSize)
		done, err := r.n.Access(now, 0, op(va, true))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	tr := r.n.Translator().Stats()
	if tr.Hits+tr.Misses == 0 {
		t.Fatal("translator never consulted")
	}
	st := r.n.Stats()
	if st.FAMAT == 0 {
		t.Fatal("no AT traffic counted")
	}
	if st.FAMData == 0 {
		t.Fatal("no data traffic counted")
	}
	if r.n.STU().Stats().ACMHits+r.n.STU().Stats().ACMMisses == 0 {
		t.Fatal("STU never verified")
	}
}

func TestForgedTranslationIsBlocked(t *testing.T) {
	// The decoupled cache is unverified by design; a malicious node forging
	// an entry must still be stopped by the STU. This is DeACT's core
	// security claim.
	r := newRig(t, DeACTN)
	victim, err := r.brk.AllocatePage(2) // another node's page
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VAddr(0x10_0000_0000)
	if _, err := r.n.Access(0, 0, op(va, false)); err != nil {
		t.Fatal(err)
	}
	// Find the NP page backing va and forge its translation.
	npv, ok := r.n.PageTable().Lookup(uint64(va.Page()))
	if !ok {
		t.Fatal("page not mapped")
	}
	r.n.Translator().Corrupt(addr.NPPage(npv), victim)
	// Access a different block of the same page: it misses the on-chip
	// caches and must go through the forged NP→FAM translation. (The
	// virtual→NP TLB entry is intact; only the unverified cache is forged.)
	_, err = r.n.Access(sim.US(100), 0, op(va+addr.BlockSize, false))
	if err == nil {
		t.Fatal("forged translation reached another node's data")
	}
	if !strings.Contains(err.Error(), "denied") {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.n.Stats().Denied == 0 {
		t.Fatal("denial not counted")
	}
}

func TestFlushTranslations(t *testing.T) {
	r := newRig(t, DeACTN)
	var now sim.Time
	for p := 0; p < 20; p++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(p)*addr.PageSize)
		done, err := r.n.Access(now, 0, op(va, false))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	dirty := r.n.FlushTranslations()
	if dirty == 0 {
		t.Fatal("flush found no cached translations")
	}
	// After the flush the next access must re-walk.
	walks := r.n.Stats().NodePTWalks
	if _, err := r.n.Access(now, 0, op(0x10_0000_0000, false)); err != nil {
		t.Fatal(err)
	}
	if r.n.Stats().NodePTWalks != walks+1 {
		t.Fatal("TLB survived flush")
	}
}

func TestWritebacksGenerateFAMWrites(t *testing.T) {
	r := newRig(t, EFAM)
	var now sim.Time
	// Write a working set larger than the L3 so dirty blocks spill.
	for i := 0; i < 40000; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		done, err := r.n.Access(now, 0, op(va, true))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if r.n.Stats().Writebacks == 0 {
		t.Fatal("no writebacks from a dirty streaming working set")
	}
	if r.fam.Writes() == 0 {
		t.Fatal("writebacks never reached FAM")
	}
}

func TestAccessorsNonNil(t *testing.T) {
	r := newRig(t, DeACTW)
	if r.n.DRAM() == nil || r.n.Hierarchy() == nil || r.n.MMU(0) == nil || r.n.PageTable() == nil {
		t.Fatal("nil accessor")
	}
	if r.n.ID() != 1 || r.n.Scheme() != DeACTW {
		t.Fatal("identity accessors wrong")
	}
	e := newRig(t, EFAM)
	if e.n.STU() != nil || e.n.Translator() != nil {
		t.Fatal("E-FAM must not build STU/translator")
	}
}

func TestNodePTWStepsCountAsAT(t *testing.T) {
	// In E-FAM the only AT traffic at FAM is node page-table walk steps
	// that land in the FAM zone (Figure 4's E-FAM bars).
	r := newRig(t, EFAM)
	var now sim.Time
	for p := 0; p < 400; p++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(p)*addr.PageSize)
		done, err := r.n.Access(now, 0, op(va, false))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := r.n.Stats()
	if st.FAMAT == 0 {
		t.Fatal("E-FAM never counted PTW steps as AT traffic")
	}
	if st.FAMAT >= st.FAMData+st.FAMAT {
		t.Fatal("AT accounting inconsistent")
	}
}

func TestIFAMWritebackVerified(t *testing.T) {
	// Dirty FAM-zone blocks leaving the chip must pass the STU like any
	// other FAM access: the writeback path must not bypass access control.
	r := newRig(t, IFAM)
	var now sim.Time
	for i := 0; i < 30000; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		done, err := r.n.Access(now, 0, op(va, true))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if r.n.Stats().Writebacks == 0 {
		t.Skip("working set produced no writebacks")
	}
	// Every FAM write went through TranslateAndVerify: the STU saw at least
	// as many requests as there were FAM-zone writebacks + demand misses.
	st := r.n.STU().Stats()
	if st.TranslationHits+st.TranslationMisses == 0 {
		t.Fatal("writebacks bypassed the STU")
	}
}

func TestSchemesShareAllocationSequence(t *testing.T) {
	// With the same seed, E-FAM and DeACT-N must see identical random FAM
	// placement — the property that makes cross-scheme comparisons fair.
	pages := func(scheme Scheme) []addr.FPage {
		r := newRig(t, scheme)
		var now sim.Time
		for p := 0; p < 50; p++ {
			va := addr.VAddr(0x10_0000_0000 + uint64(p)*addr.PageSize)
			done, err := r.n.Access(now, 0, op(va, false))
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		var out []addr.FPage
		tbl, err := r.brk.NodeTable(1)
		if err != nil {
			t.Fatal(err)
		}
		for np := uint64(0); np < 1<<20; np++ {
			if fp, ok := tbl.Lookup(np); ok {
				out = append(out, addr.FPage(fp))
			}
		}
		return out
	}
	a := pages(EFAM)
	b := pages(DeACTN)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("placement sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
