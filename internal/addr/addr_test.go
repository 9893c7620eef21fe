package addr

import (
	"testing"
	"testing/quick"
)

func testLayout() Layout {
	return Layout{
		DRAMSize:    1 << 30, // 1GB
		FAMZoneSize: 4 << 30, // 4GB node window
		FAMSize:     16 << 30,
		ACMBits:     16,
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := testLayout().Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{DRAMSize: 0, FAMZoneSize: PageSize, FAMSize: PageSize, ACMBits: 16},
		{DRAMSize: PageSize + 1, FAMZoneSize: PageSize, FAMSize: PageSize, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: 0, FAMSize: PageSize, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: 0, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: 1 << 30, ACMBits: 7},
		// Metadata swallows pool: tiny FAM with bitmap overhead.
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: 2 * PageSize, ACMBits: 32},
		// Page numbers a 32-bit page-table entry cannot name.
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: 1 << 50, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: (MaxPages + 1) * PageSize, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: MaxPages * PageSize, FAMSize: 1 << 30, ACMBits: 16},
		{DRAMSize: 1 << 62, FAMZoneSize: 1 << 62, FAMSize: 1 << 30, ACMBits: 16},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

// TestLayoutPageBoundIsInclusive: a pool or node-physical space of exactly
// MaxPages pages is the largest one whose every page number + 1 fits a
// 32-bit page-table entry, and it validates.
func TestLayoutPageBoundIsInclusive(t *testing.T) {
	for _, l := range []Layout{
		{DRAMSize: PageSize, FAMZoneSize: PageSize, FAMSize: MaxPages * PageSize, ACMBits: 16},
		{DRAMSize: PageSize, FAMZoneSize: (MaxPages - 1) * PageSize, FAMSize: 1 << 30, ACMBits: 16},
	} {
		if err := l.Validate(); err != nil {
			t.Errorf("layout at the page bound rejected: %v", err)
		}
	}
}

func TestZoneClassification(t *testing.T) {
	l := testLayout()
	if !l.InLocalZone(0) || !l.InLocalZone(NPAddr(l.DRAMSize-1)) {
		t.Fatal("local zone misclassified")
	}
	if l.InLocalZone(NPAddr(l.DRAMSize)) {
		t.Fatal("first FAM-zone address classified local")
	}
	if !l.InFAMZone(NPAddr(l.DRAMSize)) {
		t.Fatal("FAM zone base misclassified")
	}
	if l.InFAMZone(NPAddr(l.DRAMSize + l.FAMZoneSize)) {
		t.Fatal("address past FAM zone classified in-zone")
	}
	if l.FAMZoneBase() != NPAddr(l.DRAMSize) {
		t.Fatal("FAMZoneBase wrong")
	}
}

func TestPageArithmetic(t *testing.T) {
	v := VAddr(0x12345678)
	if v.Page() != VPage(0x12345) {
		t.Fatalf("VAddr.Page = %#x", v.Page())
	}
	if v.Offset() != 0x678 {
		t.Fatalf("VAddr.Offset = %#x", v.Offset())
	}
	if v.Block() != 0x12345640 {
		t.Fatalf("VAddr.Block = %#x", v.Block())
	}
	if VPage(5).Addr() != VAddr(5*PageSize) {
		t.Fatal("VPage.Addr wrong")
	}
	np := NPAddr(0xABCDE0)
	if np.Page().Addr()+NPAddr(np.Offset()) != np {
		t.Fatal("NP page/offset decomposition not invertible")
	}
	f := FAddr(0xFEDCBA)
	if f.Page().Addr()+FAddr(f.Offset()) != f {
		t.Fatal("F page/offset decomposition not invertible")
	}
	if FPage(PagesPerHuge+1).Huge() != 1 {
		t.Fatal("FPage.Huge wrong")
	}
}

func TestACMGeometry16(t *testing.T) {
	l := testLayout()
	if got := l.ACMEntriesPerBlock(); got != 32 {
		t.Fatalf("entries per block = %d, want 32 (paper: one 64B block covers 32 pages)", got)
	}
	base := l.MetadataBase()
	// Pages 0..31 share one block; page 32 starts the next.
	if l.ACMBlockAddr(0) != base || l.ACMBlockAddr(31) != base {
		t.Fatal("pages 0-31 must share the first ACM block")
	}
	if l.ACMBlockAddr(32) != base+BlockSize {
		t.Fatal("page 32 must use the second ACM block")
	}
}

func TestACMGeometryWidths(t *testing.T) {
	for _, tc := range []struct {
		bits uint
		want uint64
	}{{8, 64}, {16, 32}, {32, 16}} {
		l := testLayout()
		l.ACMBits = tc.bits
		if got := l.ACMEntriesPerBlock(); got != tc.want {
			t.Errorf("ACMBits=%d: entries per block = %d, want %d", tc.bits, got, tc.want)
		}
	}
}

func TestMetadataOverheadIsSmall(t *testing.T) {
	l := testLayout()
	// Paper: bitmap overhead "less than 0.0001%"; total metadata for 16-bit
	// ACM is ~0.05% of the pool. Sanity-check it stays well under 1%.
	if frac := float64(l.MetadataBytes()) / float64(l.FAMSize); frac > 0.01 {
		t.Fatalf("metadata fraction %.4f too large", frac)
	}
	if l.UsableFAMPages() >= l.TotalFAMPages() {
		t.Fatal("metadata carve-out missing")
	}
	if l.MetadataBase() != FAddr(l.UsableFAMPages()*PageSize) {
		t.Fatal("metadata base inconsistent with usable pages")
	}
}

func TestBitmapAddressing(t *testing.T) {
	l := testLayout()
	bb := l.BitmapBase()
	if bb <= l.MetadataBase() {
		t.Fatal("bitmap region must follow ACM entries")
	}
	// Region 0, nodes 0..511 fall in the first 64B block (8 bits/byte).
	if l.BitmapBlockAddr(0, 0) != bb.Block() {
		t.Fatal("bitmap block for region 0 node 0 wrong")
	}
	if l.BitmapBlockAddr(0, 511) != bb.Block() {
		t.Fatal("nodes 0-511 must share one bitmap block")
	}
	if l.BitmapBlockAddr(0, 512) != bb.Block()+BlockSize {
		t.Fatal("node 512 must land in the next bitmap block")
	}
	// Different regions use different bitmap areas 8KB apart.
	if l.BitmapBlockAddr(1, 0)-l.BitmapBlockAddr(0, 0) != PagesPerHuge/8 {
		t.Fatal("regions' bitmaps must be 8KB apart")
	}
}

func TestComposeHelpers(t *testing.T) {
	if NPFromVP(3, 17) != NPAddr(3*PageSize+17) {
		t.Fatal("NPFromVP wrong")
	}
	if FFromNP(7, 4095) != FAddr(7*PageSize+4095) {
		t.Fatal("FFromNP wrong")
	}
}

// Property: block addresses are always 64B aligned and within the metadata
// region for in-range pages.
func TestACMBlockAlignedQuick(t *testing.T) {
	l := testLayout()
	f := func(p uint32) bool {
		page := FPage(uint64(p) % l.UsableFAMPages())
		a := l.ACMBlockAddr(page)
		return uint64(a)%BlockSize == 0 && a >= l.MetadataBase() && uint64(a) < l.FAMSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: page/offset decomposition round-trips for all three spaces.
func TestDecompositionQuick(t *testing.T) {
	f := func(x uint64) bool {
		v, n, fa := VAddr(x), NPAddr(x), FAddr(x)
		return v.Page().Addr()+VAddr(v.Offset()) == v &&
			n.Page().Addr()+NPAddr(n.Offset()) == n &&
			fa.Page().Addr()+FAddr(fa.Offset()) == fa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
