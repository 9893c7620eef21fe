package workload

import (
	"math"
	"math/rand"
	"testing"
)

// bisectSkewBounds is the plain bisection skewBounds emulates, kept as an
// independent oracle: it calls math.Pow at every midpoint.
func bisectSkewBounds(footprint uint64, k float64) []float64 {
	fpf := float64(footprint)
	stepAt := func(bits uint64) uint64 {
		return uint64(fpf * math.Pow(math.Float64frombits(bits), k))
	}
	one := math.Float64bits(1.0)
	bounds := make([]float64, 0, footprint)
	lo := uint64(0) // invariant: stepAt(lo) < p
	for p := uint64(1); p <= footprint; p++ {
		if stepAt(one) < p {
			break // p unreachable even at u = 1; so is everything after it
		}
		hi := one // invariant: stepAt(hi) ≥ p
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if stepAt(mid) >= p {
				hi = mid
			} else {
				lo = mid
			}
		}
		if hi == one {
			break // only u = 1 itself reaches p, and Float64() never draws 1
		}
		bounds = append(bounds, math.Float64frombits(hi))
		lo = hi - 1
	}
	return bounds
}

// checkBoundsEqual fails unless skewBounds returns bounds bit-equal to
// the oracle bisection's for (footprint, k) without falling back to the
// plain bisection on any page: a page that falls back compares the oracle
// with itself.
func checkBoundsEqual(t *testing.T, name string, footprint uint64, k float64) {
	t.Helper()
	got, fallbacks := skewBounds(footprint, k)
	want := bisectSkewBounds(footprint, k)
	if fallbacks != 0 {
		t.Fatalf("%s (footprint=%d k=%v): %d pages fell back to the plain bisection", name, footprint, k, fallbacks)
	}
	if len(got) != len(want) {
		t.Fatalf("%s (footprint=%d k=%v): %d bounds, oracle has %d", name, footprint, k, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (footprint=%d k=%v): bound %d = %#x, oracle %#x", name, footprint, k, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSkewTableMatchesBisection checks that the windowed construction
// builds bit-for-bit the bounds of the plain bisection, for every catalog
// profile and for seeded random (footprint, k) pairs.
func TestSkewTableMatchesBisection(t *testing.T) {
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundsEqual(t, name, p.FootprintPages, p.SkewExp)
	}
	pairs := 150
	if testing.Short() {
		pairs = 100
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < pairs; i++ {
		footprint := uint64(64 + r.Intn(4000))
		k := 1 + 3*(1-r.Float64()) // (1, 4]
		checkBoundsEqual(t, "random", footprint, k)
	}
}

// TestSkewTableMatchesPow checks the tabled inversion against the direct pow
// formula: exhaustively at every step boundary and every guide-bucket edge
// and their representable predecessors (where the two could first
// disagree), and on a large randomized sample, for every skewed catalog
// profile.
func TestSkewTableMatchesPow(t *testing.T) {
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.SkewExp <= 1 {
			continue
		}
		tab := skewTableFor(p.FootprintPages, p.SkewExp)
		if tab == nil {
			t.Fatalf("%s: no table for footprint=%d k=%g", name, p.FootprintPages, p.SkewExp)
		}
		check := func(u float64) {
			if !(u >= 0 && u < 1) { // also drops the NaN below 0's bits
				return
			}
			got, want := tab.page(u), skewedPagePow(p.FootprintPages, p.SkewExp, u)
			if got != want {
				t.Fatalf("%s: page(%v) = %d, pow path = %d", name, u, got, want)
			}
		}
		for i, b := range tab.bounds {
			// The boundary is the exact first float reaching step i+1.
			prev := math.Float64frombits(math.Float64bits(b) - 1)
			if bp := skewedPagePow(p.FootprintPages, p.SkewExp, b); bp < uint64(i+1) {
				t.Fatalf("%s: bound %d = %v maps to %d", name, i, b, bp)
			}
			if pp := skewedPagePow(p.FootprintPages, p.SkewExp, prev); pp >= uint64(i+1) {
				t.Fatalf("%s: pred of bound %d = %v maps to %d", name, i, prev, pp)
			}
			check(b)
			check(prev)
		}
		g := len(tab.guide)
		if g&(g-1) != 0 || g > max(len(tab.bounds), 1) {
			t.Fatalf("%s: %d guide buckets for %d bounds", name, g, len(tab.bounds))
		}
		for j := 0; j < g; j++ {
			edge := float64(j) / float64(g)
			check(edge)
			check(math.Float64frombits(math.Float64bits(edge) - 1))
		}
		r := rand.New(rand.NewSource(int64(len(name))))
		for i := 0; i < 200_000; i++ {
			check(r.Float64())
		}
		check(0)
		check(math.Float64frombits(math.Float64bits(1.0) - 1))
	}
}

// TestSkewTableUniformIsNil checks uniform profiles skip the table.
func TestSkewTableUniformIsNil(t *testing.T) {
	if tab := skewTableFor(1024, 1.0); tab != nil {
		t.Fatalf("k=1 built a table")
	}
	if tab := skewTableFor(0, 2.0); tab != nil {
		t.Fatalf("footprint=0 built a table")
	}
	if tab := skewTableFor(skewTableMaxPages+1, 2.0); tab != nil {
		t.Fatalf("oversized footprint built a table")
	}
}

// skewBoundsSink keeps the benchmarked builds observable.
var skewBoundsSink []float64

// BenchmarkSkewTableBuild times building skew tables from scratch: sssp's
// table (the catalog's largest), every catalog table, and sssp's table by
// the plain bisection the construction emulates.
func BenchmarkSkewTableBuild(b *testing.B) {
	sssp, err := Get("sssp")
	if err != nil {
		b.Fatal(err)
	}
	var catalog []Profile
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		catalog = append(catalog, p)
	}
	b.Run("sssp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			skewBoundsSink = buildSkewTable(sssp.FootprintPages, sssp.SkewExp).bounds
		}
	})
	b.Run("catalog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range catalog {
				skewBoundsSink = buildSkewTable(p.FootprintPages, p.SkewExp).bounds
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			skewBoundsSink = bisectSkewBounds(sssp.FootprintPages, sssp.SkewExp)
		}
	})
}
