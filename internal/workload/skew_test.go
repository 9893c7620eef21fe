package workload

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// updateSkewCatalog makes TestSkewCatalogMatchesBisection rewrite
// skew_catalog.bin from the bisection instead of checking it.
var updateSkewCatalog = flag.Bool("update", false, "rewrite skew_catalog.bin from the bisection")

// skewRegenerate is the command that rewrites skew_catalog.bin.
const skewRegenerate = "go test ./internal/workload -run TestSkewCatalog -update"

// TestSkewCatalogMatchesBisection checks that skew_catalog.bin holds, for
// every skewed catalog profile, a record that decodes bit for bit to the
// bisection's bounds, and nothing else: the file must equal what -update
// writes, one record per distinct (footprint, k) pair in sorted order.
func TestSkewCatalogMatchesBisection(t *testing.T) {
	var pairs []skewKey
	names := map[skewKey][]string{}
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.SkewExp <= 1 {
			continue
		}
		key := skewKey{footprint: p.FootprintPages, k: p.SkewExp}
		if names[key] == nil {
			pairs = append(pairs, key)
		}
		names[key] = append(names[key], name)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].footprint != pairs[j].footprint {
			return pairs[i].footprint < pairs[j].footprint
		}
		return pairs[i].k < pairs[j].k
	})
	var file []byte
	for _, key := range pairs {
		want := skewBounds(key.footprint, key.k)
		rec, err := encodeSkewRecord(key.footprint, key.k, want)
		if err != nil {
			t.Fatalf("%v: %v", names[key], err)
		}
		file = append(file, rec...)
		if *updateSkewCatalog {
			continue
		}
		got, ok := catalogSkewBounds(key.footprint, key.k)
		if !ok {
			t.Fatalf("%v (footprint=%d k=%v): no record in skew_catalog.bin; regenerate it with %q",
				names[key], key.footprint, key.k, skewRegenerate)
		}
		if len(got) != len(want) {
			t.Fatalf("%v (footprint=%d k=%v): %d bounds recorded, bisection has %d; regenerate skew_catalog.bin with %q",
				names[key], key.footprint, key.k, len(got), len(want), skewRegenerate)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v (footprint=%d k=%v): bound %d decodes to %#x, bisection %#x; regenerate skew_catalog.bin with %q",
					names[key], key.footprint, key.k, i, math.Float64bits(got[i]), math.Float64bits(want[i]), skewRegenerate)
			}
		}
	}
	if *updateSkewCatalog {
		if err := os.WriteFile("skew_catalog.bin", file, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(skewCatalog, file) {
		t.Fatalf("skew_catalog.bin (%d bytes) holds records for pairs outside the catalog or out of order (want %d bytes for %d pairs); regenerate it with %q",
			len(skewCatalog), len(file), len(pairs), skewRegenerate)
	}
}

// encodeSkewRecord returns the skew_catalog.bin record for bounds, the
// bisection's boundaries for (footprint, k).
func encodeSkewRecord(footprint uint64, k float64, bounds []float64) ([]byte, error) {
	rec := binary.LittleEndian.AppendUint64(nil, footprint)
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(k))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(bounds)))
	fpf, invK := float64(footprint), 1/k
	for i, b := range bounds {
		off := int64(math.Float64bits(b) - math.Float64bits(skewInverse(uint64(i+1), fpf, invK)))
		if off != int64(int8(off)) {
			return nil, fmt.Errorf("bound %d lies %d ulps from the analytic inverse, beyond a signed byte", i, off)
		}
		rec = append(rec, byte(int8(off)))
	}
	return rec, nil
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

// BenchmarkSkewTableBuild times what skewTableFor does on a miss: sssp's
// table (the catalog's largest) and every catalog table, decoded from
// skew_catalog.bin, and sssp's bounds by the bisection that decoding
// replaces (what a pair outside the catalog pays).
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
			skewBoundsSink = skewBounds(sssp.FootprintPages, sssp.SkewExp)
		}
	})
}
