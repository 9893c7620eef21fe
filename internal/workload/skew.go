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
// The boundaries are defined by a bisection over the *bit patterns* of the
// candidate floats: non-negative float64s are ordered identically to their
// bit patterns, so bisecting on bits has no epsilon. u^k is monotone, but
// math.Pow is not at the ulp level: near a few boundaries (355 of the
// ~417,000 in the 14 catalog and 150 random tables skew_test.go checks)
// the computed step reads p, p-1, p across adjacent floats. There the
// boundary is wherever the bisection's midpoint path lands, and the tabled
// page differs from the pow path on about one float per such boundary.
// The two agree at every boundary, its predecessor and every guide-bucket
// edge, which the tests check along with random draws; the byte-diffed
// golden report pins the tables as built.
//
// Construction replays that bisection's exact midpoint sequence but calls
// math.Pow only for midpoints within skewWindowULPs of the analytic inverse
// (p/footprint)^(1/k); the rest are decided by which side of the window
// they lie on. That is about 6 pow evaluations per boundary instead of
// ~52 (sssp: 6.08 against 52.1), and the tables are shared globally, so a profile's
// table is built once per process.
package workload

import (
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

// skewWindowULPs is the half-width, in ulps around the analytic inverse
// c = (p/footprint)^(1/k), inside which the table construction evaluates
// math.Pow at a bisection midpoint; a midpoint outside it is decided by
// its side of c. Measured on the 14 catalog tables plus 150 seeded random
// (footprint ∈ [64, 4063], k ∈ (1, 4]) tables, as in skew_test.go: every
// boundary lies within 7 ulps of c (57% at 0, 40% at 1, 22 boundaries
// of ~417,000 beyond 4), and an 8-ulp window reproduces the plain
// bisection bit-for-bit with no guard failing, as do 16 and 32. A 4-ulp
// window needs the guard on 14 pages and mismatches 10 of those 164
// tables without it; a 2-ulp window mismatches 68 unguarded and 1 even
// with the guard. Each halving of the window saves about one math.Pow
// call per boundary.
const skewWindowULPs = 8

// buildSkewTable builds the table for (footprint, k).
func buildSkewTable(footprint uint64, k float64) *skewTable {
	t := &skewTable{footprint: footprint}
	t.bounds, _ = skewBounds(footprint, k)
	t.buildGuide()
	return t
}

// skewBounds returns the step boundaries of u ↦ uint64(footprint·u^k):
// boundary p is where the plain bisection over bits in (lo, 1.0] lands,
// starting from lo just below boundary p-1. It also returns how many pages
// failed bisectNear's guard and were bisected plainly.
func skewBounds(footprint uint64, k float64) (bounds []float64, fallbacks int) {
	fpf := float64(footprint)
	stepAt := func(bits uint64) uint64 {
		return uint64(fpf * math.Pow(math.Float64frombits(bits), k))
	}
	one := math.Float64bits(1.0)
	// Pages above stepAt(1) are unreachable even at u = 1.
	last := min(footprint, stepAt(one))
	invK := 1 / k
	bounds = make([]float64, 0, last)
	lo := uint64(0) // invariant: stepAt(lo) < p
	for p := uint64(1); p <= last; p++ {
		c := math.Float64bits(math.Pow(float64(p)/fpf, invK))
		hi, ok := bisectNear(stepAt, p, lo, one, c)
		if !ok {
			fallbacks++
			hi = bisect(stepAt, p, lo, one)
		}
		if hi == one {
			break // only u = 1 itself reaches p, and Float64() never draws 1
		}
		bounds = append(bounds, math.Float64frombits(hi))
		lo = hi - 1 // stepAt(hi-1) < p ≤ stepAt(next boundary)
	}
	return bounds, fallbacks
}

// bisect returns the bits b in (lo, hi] where a bisection for the first
// stepAt(b) ≥ p converges, given stepAt(lo) < p ≤ stepAt(hi).
func bisect(stepAt func(uint64) uint64, p, lo, hi uint64) uint64 {
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if stepAt(mid) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// bisectNear returns what bisect(stepAt, p, lo, hi) returns, evaluating
// stepAt only at midpoints within skewWindowULPs of c, the bits of the
// analytic inverse for p: a midpoint below that window counts as
// stepAt < p and one above it as stepAt ≥ p. math.Pow's ulp-level
// wobble stays within a few ulps of the true boundary, so those sides hold
// whenever c is close. If the boundary found lies in the outer half of the
// window, c may not be close: bisectNear then checks stepAt just outside
// the window and reports false, for the caller to fall back to bisect, if
// either side contradicts the side assumed there.
func bisectNear(stepAt func(uint64) uint64, p, lo, hi, c uint64) (uint64, bool) {
	wlo, whi := c-min(c, skewWindowULPs), c+skewWindowULPs
	lo0, hi0 := lo, hi
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if mid-wlo <= whi-wlo { // wlo ≤ mid ≤ whi
			if stepAt(mid) >= p {
				hi = mid
			} else {
				lo = mid
			}
			continue
		}
		// Outside the window the side decides, without a branch: the
		// side is a coin flip per step, which a predictor cannot learn.
		// The bits of non-negative floats are below 1<<63, so mid-wlo is
		// negative as an int64 exactly when mid < wlo.
		below := uint64(int64(mid-wlo) >> 63) // all ones when mid < wlo
		lo ^= (lo ^ mid) & below
		hi = mid ^ (mid^hi)&below
	}
	if hi+skewWindowULPs/2 < c || hi > c+skewWindowULPs/2 {
		if wlo > lo0+1 && stepAt(wlo-1) >= p {
			return 0, false
		}
		if whi+1 < hi0 && stepAt(whi+1) < p {
			return 0, false
		}
	}
	return hi, true
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
