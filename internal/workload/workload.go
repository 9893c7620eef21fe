// Package workload provides synthetic memory-reference generators standing
// in for the paper's benchmark binaries (Table III: SPEC 2006, PARSEC,
// Intel GAP, Mantevo and NAS programs traced under SST).
//
// We cannot replay the authors' traces, so each benchmark is modeled by the
// access-pattern characteristics that the paper's figures actually depend
// on:
//
//   - footprint (how many distinct pages are touched — drives TLB, FAM
//     translation cache and STU cache pressure),
//   - page-level locality (sequential/strided streaming vs. uniform random
//     vs. pointer chasing — drives every hit rate in Figures 9–11),
//   - cache-level miss intensity (MPKI, Table III — drives how much FAM
//     traffic exists at all), and
//   - dependence structure (pointer chases block the core; streaming
//     overlaps — drives how much latency the core can hide).
//
// The generators are deterministic per seed: every draw comes from one
// per-generator seeded RNG, and generation allocates nothing in steady
// state, so a core's instruction stream is a pure function of (benchmark,
// seed). ARCHITECTURE.md records where this substitution for the paper's
// traces sits in the overall pipeline and why it preserves the evaluated
// behaviour.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"deact/internal/addr"
	"deact/internal/arena"
)

// Op is one generated instruction window: Compute non-memory instructions
// followed by one memory reference.
type Op struct {
	// Compute is the number of non-memory instructions preceding the
	// reference.
	Compute int
	// Addr is the virtual address referenced.
	Addr addr.VAddr
	// Write marks stores.
	Write bool
	// Blocking marks dependent loads the core cannot overlap (pointer
	// chasing); streaming loads are overlapped up to the MLP window.
	Blocking bool
	// Tenant identifies the tenant this reference belongs to. It is stamped
	// by the generator (SetTenant) and carried unchanged through cpu.Core
	// into node.Node, where latency is recorded per tenant. 0 in
	// single-tenant runs.
	Tenant uint8
	// PC identifies the static generation site that produced this
	// reference, standing in for the program counter of the load/store
	// instruction. Each generator stamps a distinct constant per branch of
	// its pattern (hot/seq/chase, per-stream, …), so the node's PC-keyed
	// stream prefetcher sees the same stable keys a real instruction
	// stream would provide. Stamping consumes no RNG draws. 0 means
	// "no PC" and is never trained on.
	PC uint64
}

// Source is a reference-stream producer a cpu.Core can drive: the skew
// Generator, the pattern generators of this package, and trace.Replay all
// implement it. Next must be deterministic given the source's construction
// parameters and allocation-free in steady state. SetTenant is
// configuration, not stream state (see Generator.SetTenant).
type Source interface {
	Next() Op
	SetTenant(t uint8)
}

// Profile characterizes one benchmark.
type Profile struct {
	// Name is the short name used throughout the paper's figures.
	Name string
	// Suite is the benchmark suite (Table III).
	Suite string
	// PaperMPKI is the misses-per-kilo-instruction the paper reports
	// (Table III); used for calibration reporting, not enforced.
	PaperMPKI float64
	// ATSensitive records the paper's observation of whether the benchmark
	// suffers heavily from indirection in I-FAM (§V-C: canl, sssp, ccsv,
	// cactus, mcf… vs. the insensitive bc, lu, mg, sp).
	ATSensitive bool

	// FootprintPages is the virtual working set in 4KB pages.
	FootprintPages uint64
	// HotPages is a small hot region absorbing HotProb of references
	// (models cache-resident structures).
	HotPages uint64
	// HotProb is the probability a reference goes to the hot region.
	HotProb float64
	// SeqProb is the probability a reference continues a sequential scan.
	SeqProb float64
	// ChaseProb is the probability of a blocking pointer-chase reference.
	ChaseProb float64
	// WriteProb is the store fraction.
	WriteProb float64
	// MemPer1000 is memory references per 1000 instructions.
	MemPer1000 int
	// StrideBlocks is the scan stride in 64B blocks.
	StrideBlocks int
	// SkewExp shapes page popularity for the random and chase components:
	// a page is chosen as footprint·u^SkewExp for uniform u, so values >1
	// concentrate accesses on low page numbers (temporal locality real
	// programs exhibit); 0 or 1 means uniform.
	SkewExp float64

	// Pattern selects the generator model implementing this profile.
	// "" (or PatternSkew) is the default probabilistic skew model;
	// PatternPointerChase, PatternGraphFrontier and PatternStencil select
	// the v2 structured generators, which reuse the profile's footprint,
	// memory intensity, write fraction and stride but impose their own
	// access structure. NewSource dispatches on this field.
	Pattern string
	// PatternDegree is the selected pattern's parallelism dial: payload
	// blocks per node for pointer-chase, mean out-degree for
	// graph-frontier, concurrent streams for stencil. 0 uses the
	// pattern's default; ignored by the skew model.
	PatternDegree int
}

// Pattern names accepted in Profile.Pattern (and core.Config.Pattern).
const (
	// PatternSkew is the default probabilistic model; equivalent to "".
	PatternSkew = "skew"
	// PatternPointerChase walks a deterministic pointer chain: each node
	// visit is a blocking load followed by PatternDegree-1 sequential
	// payload blocks ("fat" list nodes), so the degree dials how much
	// latency the core can overlap per chase step.
	PatternPointerChase = "pointer-chase"
	// PatternGraphFrontier scans a vertex region sequentially (blocking
	// vertex fetch) and visits a skewed burst of edge-region blocks per
	// vertex; PatternDegree is the mean out-degree.
	PatternGraphFrontier = "graph-frontier"
	// PatternStencil interleaves PatternDegree strided streams at fixed
	// offsets (the last stream writes), the most prefetch-friendly
	// pattern in the catalog.
	PatternStencil = "stencil"
)

// Patterns returns the valid non-empty Pattern names.
func Patterns() []string {
	return []string{PatternSkew, PatternPointerChase, PatternGraphFrontier, PatternStencil}
}

// ValidPattern reports whether s names a known pattern ("" included).
func ValidPattern(s string) bool {
	switch s {
	case "", PatternSkew, PatternPointerChase, PatternGraphFrontier, PatternStencil:
		return true
	}
	return false
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.FootprintPages == 0:
		return fmt.Errorf("workload %s: zero footprint", p.Name)
	case p.MemPer1000 <= 0 || p.MemPer1000 > 1000:
		return fmt.Errorf("workload %s: MemPer1000 %d out of (0,1000]", p.Name, p.MemPer1000)
	case p.HotProb < 0 || p.SeqProb < 0 || p.ChaseProb < 0 || p.HotProb+p.SeqProb+p.ChaseProb > 1:
		return fmt.Errorf("workload %s: component probabilities invalid", p.Name)
	case p.WriteProb < 0 || p.WriteProb > 1:
		return fmt.Errorf("workload %s: WriteProb %f invalid", p.Name, p.WriteProb)
	case p.HotProb > 0 && p.HotPages == 0:
		return fmt.Errorf("workload %s: HotProb without HotPages", p.Name)
	case !ValidPattern(p.Pattern):
		return fmt.Errorf("workload %s: unknown pattern %q (have %v)", p.Name, p.Pattern, Patterns())
	case p.PatternDegree < 0 || p.PatternDegree > maxPatternDegree:
		return fmt.Errorf("workload %s: PatternDegree %d out of [0,%d]", p.Name, p.PatternDegree, maxPatternDegree)
	}
	return nil
}

// maxPatternDegree bounds PatternDegree; it keeps the per-stream PC space
// of the stencil pattern dense and the per-vertex edge bursts sane.
const maxPatternDegree = 256

// vbase is the virtual base address of every generated working set.
const vbase addr.VAddr = 0x10_0000_0000

// blocksPerPage is the number of 64B blocks in a 4KB page.
const blocksPerPage = addr.PageSize / addr.BlockSize

// Generator produces the reference stream for one core.
type Generator struct {
	p      Profile
	rng    *rand.Rand
	cursor uint64 // sequential scan position in blocks
	tenant uint8  // stamped onto every Op; set once at construction time

	// Derived counts, precomputed so Next stays off the division/multiply
	// path: the working set and hot region in 64B blocks, and the mean
	// compute gap.
	fpBlocks  uint64
	hotBlocks uint64
	meanGap   int

	// skew inverts the popularity map u ↦ ⌊footprint·u^SkewExp⌋ by binary
	// search over precomputed boundaries, replacing the per-reference
	// math.Pow call. nil when the profile is uniform (or the footprint is
	// too large to table); skewedBlock then falls back to the direct
	// formula. Both paths produce the same page for the same draw, except
	// on the few floats where math.Pow is not monotone (see skew.go).
	skew *skewTable
}

// NewGenerator builds a deterministic generator for profile p. Each core
// should use a distinct seed so the cores do not ride in lockstep.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	return newGenerator(nil, p, rand.New(rand.NewSource(seed)))
}

// newGenerator builds a generator drawing from rng, its header drawn from
// a (nil allocates normally).
func newGenerator(a *arena.Arena, p Profile, rng *rand.Rand) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.StrideBlocks <= 0 {
		p.StrideBlocks = 1
	}
	g := arena.Alloc[Generator](a, "workload.Generator")
	*g = Generator{
		p:         p,
		rng:       rng,
		fpBlocks:  p.FootprintPages * blocksPerPage,
		hotBlocks: p.HotPages * blocksPerPage,
		meanGap:   1000/p.MemPer1000 - 1,
		skew:      skewTableFor(p.FootprintPages, p.SkewExp),
	}
	return g, nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// SetTenant sets the tenant ID stamped onto every generated Op. It is
// configuration, not stream state: it consumes no RNG draws, so a tagged
// generator produces the identical reference stream as an untagged one.
func (g *Generator) SetTenant(t uint8) { g.tenant = t }

// release hands the generator's random source and header back to a.
func (g *Generator) release(a *arena.Arena) {
	arena.ReleaseRand(a, g.rng)
	arena.Free(a, "workload.Generator", g)
}

// uint64n returns a uniform value in [0, n) without modulo bias. Powers of
// two take one masked draw; other bounds reject the (at most n-1 values
// of the) biased tail, so the expected cost is still one draw.
func (g *Generator) uint64n(n uint64) uint64 { return uint64n(g.rng, n) }

// uint64n is the shared unbiased bounded draw used by every generator in
// this package; the algorithm (and therefore the draw sequence) is the
// pre-v2 Generator.uint64n unchanged.
func uint64n(r *rand.Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	limit := ^uint64(0) - ^uint64(0)%n // largest multiple of n ≤ 2^64
	for {
		if v := r.Uint64(); v < limit {
			return v % n
		}
	}
}

// skewedBlock picks a page under the profile's popularity skew, then a
// uniform block inside it. Each component costs exactly one RNG draw on
// the page (plus one on the block): the skewed path consumes a Float64,
// the uniform path an unbiased bounded Uint64.
func (g *Generator) skewedBlock() uint64 {
	var page uint64
	switch {
	case g.skew != nil:
		page = g.skew.page(g.rng.Float64())
	case g.p.SkewExp > 1:
		page = skewedPagePow(g.p.FootprintPages, g.p.SkewExp, g.rng.Float64())
	default:
		page = g.uint64n(g.p.FootprintPages)
	}
	return page*blocksPerPage + g.uint64n(blocksPerPage)
}

// Generation-site PC constants. Each static branch that can emit a memory
// reference gets its own value (16 bytes apart, like instructions in a
// small loop body), so the prefetcher's PC-indexed table separates the
// patterns the way it would separate real load instructions. Stamping is
// pure: no RNG draws, so tagged streams are draw-identical to PR-8 ones.
const (
	pcBase        uint64 = 0x0040_0000
	pcSkewHot            = pcBase + 0x10
	pcSkewSeq            = pcBase + 0x20
	pcSkewChase          = pcBase + 0x30
	pcSkewRand           = pcBase + 0x40
	pcChasePtr           = pcBase + 0x100
	pcChaseBody          = pcBase + 0x110
	pcVertex             = pcBase + 0x200
	pcEdge               = pcBase + 0x210
	pcStencilBase        = pcBase + 0x1000 // + 16·stream
)

// Next produces the next instruction window.
func (g *Generator) Next() Op {
	// Compute gap: mean 1000/MemPer1000 - 1, geometric-ish jitter.
	compute := g.meanGap
	if compute > 0 {
		compute = g.rng.Intn(2*g.meanGap + 1)
	}

	var block uint64
	blocking := false
	pc := pcSkewRand
	r := g.rng.Float64()
	switch {
	case r < g.p.HotProb:
		block = g.uint64n(g.hotBlocks)
		pc = pcSkewHot
	case r < g.p.HotProb+g.p.SeqProb:
		g.cursor = (g.cursor + uint64(g.p.StrideBlocks)) % g.fpBlocks
		block = g.cursor
		pc = pcSkewSeq
	case r < g.p.HotProb+g.p.SeqProb+g.p.ChaseProb:
		block = g.skewedBlock()
		blocking = true
		pc = pcSkewChase
	default:
		block = g.skewedBlock()
	}

	return Op{
		Compute:  compute,
		Addr:     vbase + addr.VAddr(block*addr.BlockSize),
		Write:    g.rng.Float64() < g.p.WriteProb,
		Blocking: blocking,
		Tenant:   g.tenant,
		PC:       pc,
	}
}

// NewSource builds the reference-stream source for profile p, dispatching
// on p.Pattern: the default skew Generator for "", or one of the v2
// pattern generators. Each core should use a distinct seed.
func NewSource(p Profile, seed int64) (Source, error) {
	return NewSourceInArena(nil, p, seed)
}

// NewSourceInArena is NewSource drawing the source's random generator
// from a, re-seeded: a recycled generator draws exactly the stream a fresh
// one does. Recycle hands it back. A nil arena allocates normally.
func NewSourceInArena(a *arena.Arena, p Profile, seed int64) (Source, error) {
	switch p.Pattern {
	case "", PatternSkew:
		return newGenerator(a, p, arena.Rand(a, seed))
	case PatternPointerChase:
		return newPointerChase(p, seed, arena.Rand(a, seed))
	case PatternGraphFrontier:
		return newGraphFrontier(p, arena.Rand(a, seed))
	case PatternStencil:
		return newStencil(p, arena.Rand(a, seed))
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q (have %v)", p.Pattern, Patterns())
	}
}

// Recycle hands the random generator of a source built by
// NewSourceInArena back to a; sources without one (a trace replay) have
// nothing to return. The source must not be used afterwards.
func Recycle(a *arena.Arena, src Source) {
	if r, ok := src.(interface{ release(*arena.Arena) }); ok {
		r.release(a)
	}
}

// Catalog returns the benchmark suite of Table III (plus lu, which appears
// in the figures), keyed by short name.
//
// Footprints are scaled the same way the paper scales its memory sizes
// (§IV footnote 3: average application footprint 309MB against 1GB DRAM +
// 16GB FAM); we scale the footprints and the whole device-capacity ladder
// together (~4×) so a run of a few hundred thousand
// instructions exercises the same pressure ratios. Absolute MPKI therefore
// runs higher than Table III (smaller caches thrash sooner); the ordering
// and the AT-sensitivity split are what the figures depend on.
//
// The underlying table is built once; every call returns a fresh copy, so
// callers can mutate their map (or the profiles in it) without corrupting
// later calls.
func Catalog() map[string]Profile {
	base := catalog()
	m := make(map[string]Profile, len(base))
	for name, p := range base {
		m[name] = p
	}
	return m
}

// catalog memoizes the profile table; Profile values are copied out by
// Catalog, so the shared map is never reachable by callers.
var catalog = sync.OnceValue(func() map[string]Profile {
	ps := []Profile{
		// SPEC 2006 —————————————————————————————————————————————
		{Name: "mcf", Suite: "SPEC 2006", PaperMPKI: 73, ATSensitive: true,
			FootprintPages: 6144, HotPages: 64, HotProb: 0.30, SeqProb: 0.10,
			ChaseProb: 0.35, WriteProb: 0.25, MemPer1000: 330, StrideBlocks: 1, SkewExp: 2.5},
		{Name: "cactus", Suite: "SPEC 2006", PaperMPKI: 60, ATSensitive: true,
			FootprintPages: 10240, HotPages: 32, HotProb: 0.20, SeqProb: 0.25,
			ChaseProb: 0.15, WriteProb: 0.35, MemPer1000: 300, StrideBlocks: 67, SkewExp: 1.3},
		{Name: "astar", Suite: "SPEC 2006", PaperMPKI: 9, ATSensitive: false,
			FootprintPages: 1024, HotPages: 128, HotProb: 0.62, SeqProb: 0.18,
			ChaseProb: 0.10, WriteProb: 0.20, MemPer1000: 280, StrideBlocks: 1, SkewExp: 3.0},
		// PARSEC ————————————————————————————————————————————————
		{Name: "frqm", Suite: "PARSEC", PaperMPKI: 16, ATSensitive: false,
			FootprintPages: 2048, HotPages: 256, HotProb: 0.55, SeqProb: 0.20,
			ChaseProb: 0.08, WriteProb: 0.30, MemPer1000: 300, StrideBlocks: 3, SkewExp: 3.0},
		{Name: "canl", Suite: "PARSEC", PaperMPKI: 57, ATSensitive: true,
			FootprintPages: 12288, HotPages: 32, HotProb: 0.12, SeqProb: 0.05,
			ChaseProb: 0.45, WriteProb: 0.30, MemPer1000: 330, StrideBlocks: 1, SkewExp: 2.0},
		// Intel GAP —————————————————————————————————————————————
		{Name: "bc", Suite: "GAP", PaperMPKI: 113, ATSensitive: false,
			FootprintPages: 3072, HotPages: 96, HotProb: 0.25, SeqProb: 0.58,
			ChaseProb: 0.05, WriteProb: 0.15, MemPer1000: 360, StrideBlocks: 1, SkewExp: 2.5},
		{Name: "cc", Suite: "GAP", PaperMPKI: 56, ATSensitive: true,
			FootprintPages: 4096, HotPages: 64, HotProb: 0.28, SeqProb: 0.25,
			ChaseProb: 0.22, WriteProb: 0.20, MemPer1000: 330, StrideBlocks: 1, SkewExp: 2.5},
		{Name: "ccsv", Suite: "GAP", PaperMPKI: 130, ATSensitive: true,
			FootprintPages: 7168, HotPages: 32, HotProb: 0.10, SeqProb: 0.15,
			ChaseProb: 0.40, WriteProb: 0.25, MemPer1000: 360, StrideBlocks: 1, SkewExp: 1.8},
		{Name: "sssp", Suite: "GAP", PaperMPKI: 144, ATSensitive: true,
			FootprintPages: 14336, HotPages: 32, HotProb: 0.08, SeqProb: 0.07,
			ChaseProb: 0.50, WriteProb: 0.25, MemPer1000: 380, StrideBlocks: 1, SkewExp: 1.8},
		// Mantevo ———————————————————————————————————————————————
		{Name: "pf", Suite: "Mantevo", PaperMPKI: 41, ATSensitive: true,
			FootprintPages: 4096, HotPages: 64, HotProb: 0.30, SeqProb: 0.35,
			ChaseProb: 0.12, WriteProb: 0.30, MemPer1000: 320, StrideBlocks: 5, SkewExp: 2.5},
		// NAS ———————————————————————————————————————————————————
		{Name: "dc", Suite: "NAS", PaperMPKI: 49, ATSensitive: true,
			FootprintPages: 8192, HotPages: 64, HotProb: 0.25, SeqProb: 0.20,
			ChaseProb: 0.25, WriteProb: 0.35, MemPer1000: 310, StrideBlocks: 1, SkewExp: 2.2},
		{Name: "lu", Suite: "NAS", PaperMPKI: 30, ATSensitive: false,
			FootprintPages: 1536, HotPages: 192, HotProb: 0.35, SeqProb: 0.55,
			ChaseProb: 0.02, WriteProb: 0.40, MemPer1000: 320, StrideBlocks: 1, SkewExp: 3.0},
		{Name: "mg", Suite: "NAS", PaperMPKI: 99, ATSensitive: false,
			FootprintPages: 2560, HotPages: 96, HotProb: 0.18, SeqProb: 0.72,
			ChaseProb: 0.02, WriteProb: 0.35, MemPer1000: 360, StrideBlocks: 1, SkewExp: 2.5},
		{Name: "sp", Suite: "NAS", PaperMPKI: 141, ATSensitive: false,
			FootprintPages: 2304, HotPages: 64, HotProb: 0.12, SeqProb: 0.80,
			ChaseProb: 0.01, WriteProb: 0.40, MemPer1000: 380, StrideBlocks: 1, SkewExp: 2.5},
	}
	m := make(map[string]Profile, len(ps))
	for _, p := range ps {
		m[p.Name] = p
	}
	return m
})

// Names returns the benchmark names in the paper's figure order.
func Names() []string {
	return []string{"mcf", "cactus", "astar", "frqm", "canl", "bc", "cc", "ccsv", "sssp", "pf", "dc", "lu", "mg", "sp"}
}

// Get returns a catalog profile by name.
func Get(name string) (Profile, error) {
	p, ok := catalog()[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return p, nil
}

// Suites returns the suite → members mapping used for the sensitivity
// geomeans of §V-D (sorted for determinism).
func Suites() map[string][]string {
	m := map[string][]string{}
	for name, p := range catalog() {
		m[p.Suite] = append(m[p.Suite], name)
	}
	for s := range m {
		sort.Strings(m[s])
	}
	return m
}
