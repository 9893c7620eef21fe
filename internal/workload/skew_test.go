package workload

import (
	"math"
	"math/rand"
	"testing"
)

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
