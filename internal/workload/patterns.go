// The v2 pattern generators: structured access models selected by
// Profile.Pattern. Unlike the probabilistic skew Generator, each imposes a
// specific algorithmic structure (linked traversal, frontier expansion,
// strided stencil) on top of a catalog profile's footprint, memory
// intensity and write mix — the workload axis the paper's synthetic
// calibration could not explore. All three share the Generator's
// contracts: deterministic per seed and zero allocations in Next.
package workload

import (
	"fmt"
	"math/bits"
	"math/rand"

	"deact/internal/addr"
	"deact/internal/arena"
)

// patternBase carries the pieces every pattern generator shares: profile,
// RNG, tenant stamping and the derived block counts.
type patternBase struct {
	p        Profile
	rng      *rand.Rand
	fpBlocks uint64
	meanGap  int
	tenant   uint8
}

func newPatternBase(p Profile, rng *rand.Rand) (patternBase, error) {
	if err := p.Validate(); err != nil {
		return patternBase{}, err
	}
	if p.StrideBlocks <= 0 {
		p.StrideBlocks = 1
	}
	return patternBase{
		p:        p,
		rng:      rng,
		fpBlocks: p.FootprintPages * blocksPerPage,
		meanGap:  1000/p.MemPer1000 - 1,
	}, nil
}

// gap draws the compute gap with the same distribution (and draw count)
// as the skew Generator: mean 1000/MemPer1000 - 1, uniform jitter.
func (b *patternBase) gap() int {
	if b.meanGap > 0 {
		return b.rng.Intn(2*b.meanGap + 1)
	}
	return b.meanGap
}

func (b *patternBase) SetTenant(t uint8) { b.tenant = t }

// release hands the generator's random source back to a; each pattern's
// own release also frees its header.
func (b *patternBase) release(a *arena.Arena) {
	arena.ReleaseRand(a, b.rng)
}

func (b *patternBase) op(block uint64, write, blocking bool, pc uint64, compute int) Op {
	return Op{
		Compute:  compute,
		Addr:     vbase + addr.VAddr(block*addr.BlockSize),
		Write:    write,
		Blocking: blocking,
		Tenant:   b.tenant,
		PC:       pc,
	}
}

// lcg advances the pointer-chain state; the full-period 64-bit LCG keeps
// successive chain nodes decorrelated without any RNG draws.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// reduce maps a full-width random word onto [0, n) multiplicatively
// (Lemire reduction) — cheap, deterministic, bias ~n/2^64.
func reduce(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// pointerChase walks a deterministic pointer chain over the footprint.
// Every chase step is one blocking load of the next node followed by
// degree-1 non-blocking payload loads from the node's adjacent blocks
// ("fat" list nodes). The degree dials memory-level parallelism: degree 1
// is a pure dependent chain (nothing to overlap, the worst case for FAM
// translation latency), larger degrees give the core overlap work per
// step.
type pointerChase struct {
	patternBase
	degree  int
	cur     uint64 // chain state; current node block = reduce(cur, fpBlocks)
	payload uint64 // payload loads remaining before the next chase step
}

// newPointerChase builds a pointer chase drawing from rng, its header
// drawn from a (nil allocates normally).
func newPointerChase(a *arena.Arena, p Profile, seed int64, rng *rand.Rand) (*pointerChase, error) {
	b, err := newPatternBase(p, rng)
	if err != nil {
		return nil, err
	}
	deg := p.PatternDegree
	if deg == 0 {
		deg = 4
	}
	g := arena.Alloc[pointerChase](a, "workload.pointerChase")
	// A nonzero start keeps the LCG out of its zero-adjacent prefix.
	*g = pointerChase{
		patternBase: b,
		degree:      deg,
		cur:         uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
	}
	return g, nil
}

func (g *pointerChase) release(a *arena.Arena) {
	g.patternBase.release(a)
	arena.Free(a, "workload.pointerChase", g)
}

func (g *pointerChase) Next() Op {
	compute := g.gap()
	write := g.rng.Float64() < g.p.WriteProb
	if g.payload > 0 {
		// Payload loads sweep the blocks after the node head, so each
		// visited node produces a short sequential burst.
		off := uint64(g.degree) - g.payload
		g.payload--
		block := (reduce(g.cur, g.fpBlocks) + off) % g.fpBlocks
		return g.op(block, write, false, pcChaseBody, compute)
	}
	g.cur = lcg(g.cur)
	g.payload = uint64(g.degree) - 1
	return g.op(reduce(g.cur, g.fpBlocks), write, true, pcChasePtr, compute)
}

// graphFrontier models frontier expansion over a CSR-like layout: the low
// eighth of the footprint holds the vertex array, scanned sequentially
// with a blocking fetch per vertex; each vertex then visits a burst of
// edge-region blocks (uniform in [1, 2·degree-1], mean ≈ degree) chosen
// with a quadratic skew toward low vertex IDs, the hub structure of
// power-law graphs.
type graphFrontier struct {
	patternBase
	degree       int
	vertexBlocks uint64
	edgeBlocks   uint64
	vertex       uint64 // vertex index of the sequential scan
	rem          uint64 // edge visits remaining for the current vertex
}

// newGraphFrontier builds a frontier expansion drawing from rng, its
// header drawn from a (nil allocates normally).
func newGraphFrontier(a *arena.Arena, p Profile, rng *rand.Rand) (*graphFrontier, error) {
	b, err := newPatternBase(p, rng)
	if err != nil {
		return nil, err
	}
	deg := p.PatternDegree
	if deg == 0 {
		deg = 8
	}
	vb := b.fpBlocks / 8
	if vb == 0 {
		vb = 1
	}
	eb := b.fpBlocks - vb
	if eb == 0 {
		return nil, fmt.Errorf("workload %s: footprint too small for graph-frontier", p.Name)
	}
	g := arena.Alloc[graphFrontier](a, "workload.graphFrontier")
	*g = graphFrontier{patternBase: b, degree: deg, vertexBlocks: vb, edgeBlocks: eb}
	return g, nil
}

func (g *graphFrontier) release(a *arena.Arena) {
	g.patternBase.release(a)
	arena.Free(a, "workload.graphFrontier", g)
}

func (g *graphFrontier) Next() Op {
	compute := g.gap()
	if g.rem == 0 {
		// Next vertex: sequential scan of the vertex array, blocking
		// (out-degree and edge offsets depend on the fetched vertex).
		g.vertex++
		if g.vertex >= g.vertexBlocks {
			g.vertex = 0
		}
		g.rem = 1 + uint64n(g.rng, uint64(2*g.degree-1))
		return g.op(g.vertex, false, true, pcVertex, compute)
	}
	g.rem--
	// Edge visit: u² skews toward low edge blocks (hubs).
	u := g.rng.Float64()
	eb := uint64(float64(g.edgeBlocks) * u * u)
	if eb >= g.edgeBlocks {
		eb = g.edgeBlocks - 1
	}
	write := g.rng.Float64() < g.p.WriteProb
	return g.op(g.vertexBlocks+eb, write, false, pcEdge, compute)
}

// stencil interleaves degree strided streams at fixed offsets across the
// footprint — the classic structured-grid sweep (read degree-1 input
// planes, write one output plane). Fully deterministic addresses, never
// blocking, one jitter draw per op; each stream has its own PC, so this
// is the pattern a PC-keyed stream prefetcher should cover almost
// completely.
type stencil struct {
	patternBase
	streams uint64
	rowOff  uint64 // block offset between consecutive streams
	stride  uint64
	base    uint64 // sweep base position
	sidx    uint64 // round-robin stream index
}

// newStencil builds a stencil sweep drawing from rng, its header drawn
// from a (nil allocates normally).
func newStencil(a *arena.Arena, p Profile, rng *rand.Rand) (*stencil, error) {
	b, err := newPatternBase(p, rng)
	if err != nil {
		return nil, err
	}
	deg := uint64(p.PatternDegree)
	if deg == 0 {
		deg = 4
	}
	if deg > b.fpBlocks {
		deg = b.fpBlocks
	}
	g := arena.Alloc[stencil](a, "workload.stencil")
	*g = stencil{
		patternBase: b,
		streams:     deg,
		rowOff:      b.fpBlocks / deg,
		stride:      uint64(b.p.StrideBlocks),
	}
	return g, nil
}

func (g *stencil) release(a *arena.Arena) {
	g.patternBase.release(a)
	arena.Free(a, "workload.stencil", g)
}

func (g *stencil) Next() Op {
	compute := g.gap()
	s := g.sidx
	block := (g.base + s*g.rowOff) % g.fpBlocks
	g.sidx++
	if g.sidx == g.streams {
		g.sidx = 0
		g.base = (g.base + g.stride) % g.fpBlocks
	}
	// The last stream is the output plane: deterministic writes, no draw.
	return g.op(block, s == g.streams-1, false, pcStencilBase+16*s, compute)
}
