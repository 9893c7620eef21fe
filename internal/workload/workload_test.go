package workload

import (
	"math"
	"math/rand"
	"testing"

	"deact/internal/addr"
)

// TestSkewedDrawSequence replays the documented RNG draw sequence and
// asserts the generator consumes exactly those draws: one component draw,
// one page draw (Float64 when skewed, bounded Uint64 when uniform), one
// in-page block draw, one write draw. The original implementation burned a
// dead Uint64 page draw before the skewed path, which this test catches.
func TestSkewedDrawSequence(t *testing.T) {
	for _, skew := range []float64{0, 2.5} {
		p := Profile{
			Name: "seq-check", Suite: "test", FootprintPages: 300,
			ChaseProb: 1, MemPer1000: 1000, SkewExp: skew,
		}
		g, err := NewGenerator(p, 77)
		if err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(77))
		refUint64n := func(n uint64) uint64 {
			if n&(n-1) == 0 {
				return ref.Uint64() & (n - 1)
			}
			limit := ^uint64(0) - ^uint64(0)%n
			for {
				if v := ref.Uint64(); v < limit {
					return v % n
				}
			}
		}
		for i := 0; i < 500; i++ {
			op := g.Next()
			// MemPer1000=1000 → meanGap 0 → no compute draw.
			ref.Float64() // component pick (always chase here)
			var page uint64
			if skew > 1 {
				u := ref.Float64()
				page = uint64(float64(p.FootprintPages) * math.Pow(u, skew))
				if page >= p.FootprintPages {
					page = p.FootprintPages - 1
				}
			} else {
				page = refUint64n(p.FootprintPages)
			}
			block := page*blocksPerPage + refUint64n(blocksPerPage)
			ref.Float64() // write draw (WriteProb 0 → always false)
			want := vbase + addr.VAddr(block*addr.BlockSize)
			if op.Addr != want {
				t.Fatalf("skew=%v op %d: addr %#x, want %#x — RNG stream out of sync", skew, i, op.Addr, want)
			}
		}
	}
}

// TestUint64nUnbiasedRange: bounded draws stay in range and cover small
// bounds roughly uniformly (the modulo-bias regression guard).
func TestUint64nUnbiasedRange(t *testing.T) {
	p := Profile{Name: "u", Suite: "test", FootprintPages: 1, MemPer1000: 500}
	g, err := NewGenerator(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		v := g.uint64n(3)
		if v >= 3 {
			t.Fatalf("uint64n(3) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/3-n/20 || c > n/3+n/20 {
			t.Fatalf("uint64n(3) skewed: counts=%v (value %d)", counts, v)
		}
	}
	// Power-of-two bounds take the mask path; range check only.
	for i := 0; i < 1000; i++ {
		if v := g.uint64n(64); v >= 64 {
			t.Fatalf("uint64n(64) = %d out of range", v)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 14 {
		t.Fatalf("catalog has %d benchmarks, want 14", len(cat))
	}
	for _, name := range Names() {
		p, ok := cat[name]
		if !ok {
			t.Fatalf("figure-order benchmark %q missing from catalog", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
	if len(Names()) != len(cat) {
		t.Fatal("Names() and Catalog() disagree")
	}
}

func TestTableIIIMPKIRecorded(t *testing.T) {
	// Spot-check the Table III values the profiles are calibrated against.
	want := map[string]float64{"mcf": 73, "sssp": 144, "astar": 9, "mg": 99, "ccsv": 130}
	cat := Catalog()
	for name, mpki := range want {
		if cat[name].PaperMPKI != mpki {
			t.Errorf("%s PaperMPKI = %v, want %v", name, cat[name].PaperMPKI, mpki)
		}
	}
}

func TestATSensitivityClassification(t *testing.T) {
	// §V-C: bc, lu, mg, sp are the insensitive set.
	cat := Catalog()
	for _, name := range []string{"bc", "lu", "mg", "sp"} {
		if cat[name].ATSensitive {
			t.Errorf("%s must be AT-insensitive", name)
		}
	}
	for _, name := range []string{"canl", "sssp", "ccsv", "cactus"} {
		if !cat[name].ATSensitive {
			t.Errorf("%s must be AT-sensitive", name)
		}
	}
}

func TestGet(t *testing.T) {
	if _, err := Get("sssp"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSuites(t *testing.T) {
	s := Suites()
	if len(s["GAP"]) != 4 {
		t.Fatalf("GAP members = %v", s["GAP"])
	}
	if len(s["SPEC 2006"]) != 3 || len(s["PARSEC"]) != 2 || len(s["NAS"]) != 4 || len(s["Mantevo"]) != 1 {
		t.Fatalf("suite partition wrong: %v", s)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := Catalog()["mcf"]
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.FootprintPages = 0 },
		func(p *Profile) { p.MemPer1000 = 0 },
		func(p *Profile) { p.MemPer1000 = 2000 },
		func(p *Profile) { p.HotProb = 0.9; p.SeqProb = 0.9 },
		func(p *Profile) { p.WriteProb = 1.5 },
		func(p *Profile) { p.HotProb = 0.1; p.HotPages = 0 },
	}
	for i, mutate := range bad {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	p := Catalog()["mcf"]
	g1, _ := NewGenerator(p, 3)
	g2, _ := NewGenerator(p, 3)
	g3, _ := NewGenerator(p, 4)
	same, diff := true, false
	for i := 0; i < 200; i++ {
		o1, o2, o3 := g1.Next(), g2.Next(), g3.Next()
		if o1 != o2 {
			same = false
		}
		if o1 != o3 {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed diverged")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorStaysInFootprint(t *testing.T) {
	for _, name := range Names() {
		p := Catalog()[name]
		g, err := NewGenerator(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		limit := addr.VAddr(0x10_0000_0000) + addr.VAddr(p.FootprintPages*addr.PageSize)
		for i := 0; i < 2000; i++ {
			op := g.Next()
			if op.Addr < 0x10_0000_0000 || op.Addr >= limit {
				t.Fatalf("%s op %d at %#x outside footprint", name, i, op.Addr)
			}
			if op.Compute < 0 {
				t.Fatalf("%s negative compute gap", name)
			}
		}
	}
}

func TestStreamingVsChasingCharacter(t *testing.T) {
	countPages := func(name string, n int) (distinct int, blocking int) {
		g, _ := NewGenerator(Catalog()[name], 9)
		pages := map[addr.VPage]bool{}
		for i := 0; i < n; i++ {
			op := g.Next()
			pages[op.Addr.Page()] = true
			if op.Blocking {
				blocking++
			}
		}
		return len(pages), blocking
	}
	// sssp (pointer-chasing graph) must touch far more distinct pages and
	// block far more often than sp (streaming stencil).
	ssspPages, ssspBlk := countPages("sssp", 20000)
	spPages, spBlk := countPages("sp", 20000)
	if ssspPages <= 2*spPages {
		t.Fatalf("page spread: sssp=%d sp=%d — graph chase must dominate", ssspPages, spPages)
	}
	if ssspBlk <= 10*spBlk {
		t.Fatalf("blocking: sssp=%d sp=%d", ssspBlk, spBlk)
	}
}

func TestWriteFractionRoughlyHonored(t *testing.T) {
	p := Catalog()["sp"] // WriteProb 0.40
	g, _ := NewGenerator(p, 2)
	writes := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.35 || frac > 0.45 {
		t.Fatalf("write fraction %.3f, want ≈0.40", frac)
	}
}

func TestMemIntensityHonored(t *testing.T) {
	p := Catalog()["mcf"] // MemPer1000 = 330 → mean compute ≈ 2
	g, _ := NewGenerator(p, 7)
	total := 0
	const n = 10000
	for i := 0; i < n; i++ {
		total += g.Next().Compute + 1
	}
	perMem := float64(total) / n // instructions per memory op
	want := 1000.0 / 330.0
	if perMem < want*0.8 || perMem > want*1.2 {
		t.Fatalf("instructions per memory op %.2f, want ≈%.2f", perMem, want)
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	g, err := NewGenerator(Catalog()["sssp"], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
