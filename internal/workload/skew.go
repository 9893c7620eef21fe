// Skewed page selection without math.Pow in the reference hot loop.
//
// The skewed component of every profile maps a uniform draw u ∈ [0,1) to a
// page via page(u) = ⌊footprint · u^SkewExp⌋ (clamped to footprint-1). That
// map is a step function with at most `footprint` steps, so instead of
// evaluating math.Pow per reference we precompute, once per (footprint,
// SkewExp) pair, the float64 boundary at which each step begins, and
// answer queries by counting the boundaries at or below u. A guide array
// over [0,1) in power-of-two buckets says how many boundaries lie at or
// below each bucket's lower edge, so a query starts its count there and
// scans forward over the few boundaries inside its own bucket.
//
// The boundaries are defined by a plain bisection over the *bit patterns*
// of the candidate floats (skewBounds): non-negative float64s are ordered
// identically to their bit patterns, so bisecting on bits has no epsilon.
// u^k is monotone, but math.Pow is not at the ulp level: near a few
// boundaries (355 of ~417,000 over the 14 catalog tables and 150 random
// (footprint, k) pairs) the computed step reads p, p-1, p across adjacent
// floats. There the boundary is wherever the bisection's midpoint path
// lands, and the tabled page differs from the pow path on about one float
// per such boundary. The two agree at every boundary, its predecessor and
// every guide-bucket edge, which the tests check along with random draws;
// the byte-diffed golden report pins the tables as built.
//
// The bisection costs ~52 math.Pow calls per boundary, so the catalog's
// tables ship precomputed in skew_catalog.bin, one record per distinct
// (FootprintPages, SkewExp) pair. A record stores each boundary as the
// signed difference between its bits and the bits of the analytic inverse
// c = (p/footprint)^(1/k), which fits a byte (every catalog offset lies
// within ±6), so decoding costs one math.Pow per boundary. Any other pair
// is bisected on first use. TestSkewCatalogMatchesBisection holds every
// record to the bisection bit for bit, and
//
//	go test ./internal/workload -run TestSkewCatalog -update
//
// rewrites the file after a catalog edit. Tables are shared globally, so a
// profile's table is built once per process.
package workload

import (
	_ "embed"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// skewTableMaxPages bounds table construction: a profile with a footprint
// beyond this (none in the catalog; the largest is 14336 pages) falls back
// to the direct pow path rather than building a multi-megabyte table.
const skewTableMaxPages = 1 << 20

// skewedPagePow is the original direct evaluation: the page for draw u under
// (footprint, k) popularity skew. It remains the reference implementation —
// skewTable agrees with it except on the few floats where math.Pow is not
// monotone — and the fallback for untabled footprints.
func skewedPagePow(footprint uint64, k, u float64) uint64 {
	page := uint64(float64(footprint) * math.Pow(u, k))
	if page >= footprint {
		page = footprint - 1
	}
	return page
}

// skewTable answers page(u) queries for one (footprint, SkewExp) pair.
type skewTable struct {
	footprint uint64
	// bounds[i] is the float64 u at which the bisection for
	// uint64(footprint·u^k) ≥ i+1 lands: the smallest such u wherever
	// math.Pow is monotone at the ulp level. Pages unreachable by any u < 1
	// have no entry (the array simply ends early).
	bounds []float64
	// guide[j] is the number of bounds ≤ j/G, for G = len(guide), a power
	// of two no larger than max(len(bounds), 1). Scaling by a power of two
	// is exact in float64, so int(u·G) is the bucket j with
	// j/G ≤ u < (j+1)/G.
	guide []uint32
}

// page returns the page for draw u: skewedPagePow(t.footprint, k, u),
// except on the few floats where math.Pow is not monotone.
func (t *skewTable) page(u float64) uint64 {
	// The number of boundaries ≤ u is uint64(footprint·u^k), counted
	// without pow. Every bound the guide counts is ≤ j/G ≤ u, so the count
	// resumes there.
	i := int(t.guide[int(u*float64(len(t.guide)))])
	for i < len(t.bounds) && t.bounds[i] <= u {
		i++
	}
	p := uint64(i)
	if p >= t.footprint {
		p = t.footprint - 1
	}
	return p
}

type skewKey struct {
	footprint uint64
	k         float64
}

var (
	skewMu     sync.Mutex
	skewTables = map[skewKey]*skewTable{}
)

// skewTableFor returns the shared table for (footprint, k), building it on
// first use. It returns nil when the profile is uniform (k ≤ 1, where the
// generator uses an unbiased bounded draw instead) or the footprint exceeds
// the table bound.
func skewTableFor(footprint uint64, k float64) *skewTable {
	if k <= 1 || footprint == 0 || footprint > skewTableMaxPages {
		return nil
	}
	key := skewKey{footprint: footprint, k: k}
	skewMu.Lock()
	defer skewMu.Unlock()
	if t, ok := skewTables[key]; ok {
		return t
	}
	t := buildSkewTable(footprint, k)
	skewTables[key] = t
	return t
}

// buildSkewTable builds the table for (footprint, k): decoded from
// skew_catalog.bin when the file has the pair, bisected otherwise.
func buildSkewTable(footprint uint64, k float64) *skewTable {
	t := &skewTable{footprint: footprint}
	var ok bool
	if t.bounds, ok = catalogSkewBounds(footprint, k); !ok {
		t.bounds = skewBounds(footprint, k)
	}
	t.buildGuide()
	return t
}

// skewBounds returns the step boundaries of u ↦ uint64(footprint·u^k):
// boundary p is where a bisection over bits in (lo, 1.0] for the first
// u with step ≥ p lands, starting from lo just below boundary p-1.
func skewBounds(footprint uint64, k float64) []float64 {
	fpf := float64(footprint)
	stepAt := func(bits uint64) uint64 {
		return uint64(fpf * math.Pow(math.Float64frombits(bits), k))
	}
	one := math.Float64bits(1.0)
	// Pages above stepAt(1) are unreachable even at u = 1.
	last := min(footprint, stepAt(one))
	bounds := make([]float64, 0, last)
	lo := uint64(0) // invariant: stepAt(lo) < p
	for p := uint64(1); p <= last; p++ {
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
		lo = hi - 1 // stepAt(hi-1) < p ≤ stepAt(next boundary)
	}
	return bounds
}

// skewCatalog holds the catalog's boundaries as a sequence of records,
// little-endian: footprint (uint64), the bits of k (uint64), the boundary
// count n (uint32), then n signed bytes, boundary p's bits minus the bits
// of skewInverse(p, footprint, 1/k).
//
//go:embed skew_catalog.bin
var skewCatalog []byte

// skewRecordHeader is the byte length of a record's fixed fields.
const skewRecordHeader = 8 + 8 + 4

// skewInverse returns the analytic inverse (p/footprint)^(1/k), given
// invK = 1/k: the float each catalog boundary is stored relative to.
func skewInverse(p uint64, fpf, invK float64) float64 {
	return math.Pow(float64(p)/fpf, invK)
}

// catalogSkewBounds decodes the boundaries skew_catalog.bin records for
// (footprint, k), or reports false when it has no record for the pair.
func catalogSkewBounds(footprint uint64, k float64) ([]float64, bool) {
	for data := skewCatalog; len(data) >= skewRecordHeader; {
		n := int(binary.LittleEndian.Uint32(data[16:]))
		rec := data[skewRecordHeader : skewRecordHeader+n]
		if binary.LittleEndian.Uint64(data) != footprint ||
			binary.LittleEndian.Uint64(data[8:]) != math.Float64bits(k) {
			data = data[skewRecordHeader+n:]
			continue
		}
		fpf, invK := float64(footprint), 1/k
		bounds := make([]float64, n)
		for i, off := range rec {
			c := math.Float64bits(skewInverse(uint64(i+1), fpf, invK))
			bounds[i] = math.Float64frombits(c + uint64(int8(off)))
		}
		return bounds, true
	}
	return nil, false
}

// buildGuide fills the guide in one linear pass over the sorted bounds,
// with at most one bucket per bound.
func (t *skewTable) buildGuide() {
	g := 1
	if n := len(t.bounds); n > 1 {
		g = 1 << (bits.Len(uint(n)) - 1)
	}
	t.guide = make([]uint32, g)
	i := 0
	for j := range t.guide {
		edge := float64(j) / float64(g)
		for i < len(t.bounds) && t.bounds[i] <= edge {
			i++
		}
		t.guide[j] = uint32(i)
	}
}
