package core

import (
	"context"
	"fmt"

	"deact/internal/arena"
	"deact/internal/broker"
	"deact/internal/cpu"
	"deact/internal/fabric"
	"deact/internal/memdev"
	"deact/internal/node"
	"deact/internal/sim"
	"deact/internal/trace"
	"deact/internal/workload"
)

// SystemPool recycles the construction-time memory of a System across the
// hundreds of runs of a sweep: the large arrays — cache line arrays, TLB
// and STU arrays, page-table arenas, the broker's owner table and
// free-pool map, ACM chunk slabs, translator lines, OS backing tables
// (~2.5MB zeroed per run) — the contention calendars with their gap
// arrays, the random sources of the generators, broker and translators
// (re-seeded), the engine's event queue, and the per-structure headers
// down to each node's ~10KB value and each core's generator. Build with
// NewSystem(cfg, WithPool(pool)), run, then Recycle, and the next system
// reuses the memory, clearing instead of reallocating: a warm pooled Run
// allocates only its Result, four slices whatever its nodes and cores
// (TestPooledRunAllocations). Results are byte-identical to unpooled runs
// (recycled buffers are zeroed or reset on reuse; the golden-report CI
// job holds this).
//
// A pool is not safe for concurrent use: give each concurrently running
// simulation its own (the experiments Runner keeps one per worker slot).
// A nil *SystemPool is valid everywhere and means "allocate normally".
type SystemPool struct {
	a *arena.Arena
}

// NewSystemPool returns an empty pool.
func NewSystemPool() *SystemPool {
	return &SystemPool{a: arena.New()}
}

// arenaOf unwraps the pool's arena, tolerating a nil pool.
func (p *SystemPool) arenaOf() *arena.Arena {
	if p == nil {
		return nil
	}
	return p.a
}

// RunOption configures how a System is built and run. Options compose:
// core.Run(ctx, cfg, WithPool(pool), WithTraceRecorder(rec)) builds a
// pooled system and records the Op streams it consumes.
type RunOption func(runOptions) runOptions

type runOptions struct {
	pool     *SystemPool
	trace    *trace.Trace
	recorder *trace.Recorder
}

// WithPool draws the system's large backing arrays from pool (nil allocates
// normally). After the run, Recycle hands the memory back for the pool's
// next construction.
func WithPool(pool *SystemPool) RunOption {
	return func(o runOptions) runOptions { o.pool = pool; return o }
}

// WithTrace replays t instead of synthesizing workloads: core i consumes
// trace stream i verbatim (tenant tags re-stamped from cfg). The config
// must carry cfg.TraceID == t.ID() — replay runs fingerprint per trace —
// and the trace must have exactly Nodes×CoresPerNode streams.
func WithTrace(t *trace.Trace) RunOption {
	return func(o runOptions) runOptions { o.trace = t; return o }
}

// WithTraceRecorder taps every core's workload source so rec captures the
// exact Op stream the run consumed (stream i = global core i). Recording
// changes nothing about the run itself; encode or save rec afterwards. A
// recording run cannot replay a trace at the same time.
func WithTraceRecorder(rec *trace.Recorder) RunOption {
	return func(o runOptions) runOptions { o.recorder = rec; return o }
}

// System is one fully assembled FAM system: a shared broker, fabric and
// FAM pool, with Nodes compute nodes each running the configured benchmark
// on CoresPerNode cores.
type System struct {
	cfg    Config
	engine *sim.Engine
	brk    *broker.Broker
	fab    *fabric.Fabric
	fam    *memdev.Device
	nodes  []*node.Node
	cores  []*cpu.Core       // node-major: core ci of node ni is [ni*CoresPerNode+ci]
	srcs   []workload.Source // core i's source, before any recorder tap
}

// NewSystem builds a system from cfg, applying any options.
func NewSystem(cfg Config, opts ...RunOption) (*System, error) {
	var o runOptions
	for _, opt := range opts {
		o = opt(o)
	}
	return newSystem(cfg, o)
}

func newSystem(cfg Config, o runOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := workload.Get(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	// The noisy-neighbor mix swaps tenant 0's workload; all other tenants
	// run the steady benchmark.
	noisyProf := prof
	if cfg.NoisyBenchmark != "" {
		if noisyProf, err = workload.Get(cfg.NoisyBenchmark); err != nil {
			return nil, err
		}
	}
	a := o.pool.arenaOf()

	totalCores := cfg.Nodes * cfg.CoresPerNode
	switch {
	case o.trace != nil && o.recorder != nil:
		return nil, fmt.Errorf("core: cannot record and replay a trace in the same run")
	case o.trace == nil && cfg.TraceID != "":
		return nil, fmt.Errorf("core: Config.TraceID %q set but no trace supplied (core.WithTrace)", cfg.TraceID)
	case o.trace != nil && cfg.TraceID == "":
		return nil, fmt.Errorf("core: replaying a trace requires Config.TraceID = trace ID %q", o.trace.ID())
	case o.trace != nil && cfg.TraceID != o.trace.ID():
		return nil, fmt.Errorf("core: Config.TraceID %q does not match trace ID %q", cfg.TraceID, o.trace.ID())
	case o.trace != nil && o.trace.Streams() != totalCores:
		return nil, fmt.Errorf("core: trace has %d streams, run has %d cores (Nodes×CoresPerNode)",
			o.trace.Streams(), totalCores)
	case o.recorder != nil && o.recorder.Streams() != totalCores:
		return nil, fmt.Errorf("core: recorder has %d streams, run has %d cores (Nodes×CoresPerNode)",
			o.recorder.Streams(), totalCores)
	}

	s := arena.Alloc[System](a, "core.System")
	s.cfg = cfg
	s.engine = sim.NewEngineInArena(a)
	s.brk, err = broker.NewInArena(a, cfg.Layout, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.fab = fabric.NewInArena(a, fabric.Config{Latency: cfg.FabricLatency, PacketTime: cfg.FabricPacketTime})
	s.fam = memdev.NewInArena(a, "memdev.fam", cfg.FAMCfg)
	s.nodes = arena.Slice[*node.Node](a, "core.nodes", cfg.Nodes)
	s.cores = arena.Slice[*cpu.Core](a, "core.cores", totalCores)
	s.srcs = arena.Slice[workload.Source](a, "core.sources", totalCores)

	total := cfg.WarmupInstructions + cfg.MeasureInstructions
	for ni := range s.nodes {
		// Node IDs start at 1; the broker reserves 0 for itself.
		n, err := node.NewInArena(a, cfg.nodeConfig(uint16(ni+1)), s.brk, s.fab, s.fam)
		if err != nil {
			return nil, err
		}
		s.nodes[ni] = n
		for ci := 0; ci < cfg.CoresPerNode; ci++ {
			tenant := cfg.tenantFor(ni, ci)
			globalCore := ni*cfg.CoresPerNode + ci
			var src workload.Source
			if o.trace != nil {
				src = o.trace.Source(globalCore)
			} else {
				p := prof
				if tenant == 0 && cfg.NoisyBenchmark != "" {
					p = noisyProf
				}
				// The config-level pattern override rides on the profile; ""
				// leaves the catalog profile untouched (the skew model).
				p.Pattern = cfg.Pattern
				p.PatternDegree = cfg.PatternDegree
				src, err = workload.NewSourceInArena(a, p, cfg.Seed+int64(ni)*100+int64(ci))
				if err != nil {
					return nil, err
				}
			}
			s.srcs[globalCore] = src
			src.SetTenant(tenant)
			if o.recorder != nil {
				src = o.recorder.Tap(globalCore, src)
			}
			s.cores[globalCore], err = cpu.NewInArena(a, cpu.Config{
				ID: ci, CycleTime: cfg.CycleTime, IssueWidth: cfg.IssueWidth,
				MaxOutstanding: cfg.MaxOutstanding, Instructions: total,
				OoO:        cfg.CoreModel == CoreOoO,
				WindowSize: cfg.WindowSize, SchedulerLatency: cfg.SchedulerLatency,
			}, src, n)
			if err != nil {
				return nil, err
			}
		}
	}
	// Bind the engine clock into every contended resource: calendars prune
	// themselves against the engine's current time (no future access chain
	// can start before it), keeping Acquire O(1) amortized for arbitrarily
	// long runs.
	s.fab.Bind(s.engine)
	s.fam.Bind(s.engine)
	for _, n := range s.nodes {
		n.Bind(s.engine)
	}
	return s, nil
}

// Broker exposes the system broker (examples: shared pages, migration).
func (s *System) Broker() *broker.Broker { return s.brk }

// Node returns node i (0-based).
func (s *System) Node(i int) *node.Node { return s.nodes[i] }

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// Engine returns the simulation engine.
func (s *System) Engine() *sim.Engine { return s.engine }

// resetStats zeroes every counter a Result reads, so a read at the end of
// the run covers only what follows the call. The cores' retired counts are
// the exception: a core's instruction count carries its retirement budget,
// so Run keeps a start value for them instead (see retired).
func (s *System) resetStats() {
	s.fab.ResetStats()
	s.fam.ResetStats()
	for _, n := range s.nodes {
		n.ResetStats()
	}
}

// retired sums the instructions and memory ops every core has retired.
func (s *System) retired() (instrs, memOps uint64) {
	for _, c := range s.cores {
		instrs += c.Instructions()
		memOps += c.MemOps()
	}
	return instrs, memOps
}

// ctxStride is the simulated-time slice between cooperative-cancellation
// checks while the engine drains. Coarse enough to be free (a run covers
// thousands of strides' worth of events between wall-clock milliseconds),
// fine enough that cancelling a multi-minute report run aborts the
// in-flight simulations in well under a second of wall time.
const ctxStride = 5 * sim.Microsecond

// runPhase drains the engine and verifies every core retired cleanly. The
// engine runs in ctxStride slices of simulated time with a cancellation
// check between slices; slicing dispatches exactly the same events in the
// same order as one uncancelled drain, so results stay byte-identical.
func (s *System) runPhase(ctx context.Context) error {
	for s.engine.Pending() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.engine.Run(s.engine.Now() + ctxStride)
	}
	for i, c := range s.cores {
		ni, ci := i/s.cfg.CoresPerNode, i%s.cfg.CoresPerNode
		if err := c.Err(); err != nil {
			return fmt.Errorf("node %d core %d: %w", ni+1, ci, err)
		}
		if !c.Done() {
			return fmt.Errorf("node %d core %d: engine drained before retirement", ni+1, ci)
		}
	}
	return nil
}

// Run executes the warmup phase (if configured) and then the measured
// phase, returning steady-state metrics. Cancelling ctx aborts the
// simulation at the next stride boundary and returns ctx.Err().
func (s *System) Run(ctx context.Context) (Result, error) {
	// Phase 1: warmup. Cores are built with the total budget; we trim it
	// to the warmup length, run, then extend for measurement.
	warm := s.cfg.WarmupInstructions
	if warm > 0 {
		for _, c := range s.cores {
			c.SetBudget(warm)
		}
		for _, c := range s.cores {
			c.Start(s.engine)
		}
		if err := s.runPhase(ctx); err != nil {
			return Result{}, err
		}
	}
	start := s.engine.Now()
	instrs, memOps := s.retired()
	s.resetStats()

	for _, c := range s.cores {
		c.SetBudget(warm + s.cfg.MeasureInstructions)
		c.Start(s.engine)
	}
	if err := s.runPhase(ctx); err != nil {
		return Result{}, err
	}
	return s.result(start, instrs, memOps), nil
}

// Recycle returns the system's construction-time memory to pool for its
// next construction: the broker, nodes, fabric, FAM device, engine and
// cores with everything they were built from, calendars and random
// sources included. The system — including anything reached through it,
// such as broker page tables — must not be used afterwards. A nil pool is
// a no-op.
func (s *System) Recycle(pool *SystemPool) {
	a := pool.arenaOf()
	if a == nil {
		return
	}
	s.brk.Recycle(a)
	for _, n := range s.nodes {
		n.Recycle(a)
	}
	for i, c := range s.cores {
		c.Recycle(a)
		workload.Recycle(a, s.srcs[i])
	}
	s.fab.Recycle(a)
	s.fam.Recycle(a)
	s.engine.Recycle(a)
	arena.Release(a, "core.nodes", s.nodes)
	arena.Release(a, "core.cores", s.cores)
	arena.Release(a, "core.sources", s.srcs)
	arena.Free(a, "core.System", s)
}

// Run builds and runs a system in one call — the unit of work the
// experiments Runner schedules. ctx cancellation is observed cooperatively
// inside the event loop (see System.Run). Options select pooled
// construction (WithPool) and trace replay or recording (WithTrace,
// WithTraceRecorder).
func Run(ctx context.Context, cfg Config, opts ...RunOption) (Result, error) {
	var o runOptions
	for _, opt := range opts {
		o = opt(o)
	}
	s, err := newSystem(cfg, o)
	if err != nil {
		return Result{}, err
	}
	res, err := s.Run(ctx)
	// Recycle on the error path too (including cancellation): the system
	// is discarded either way and nothing else references its arrays. A
	// panicking run skips recycling — the pool stays consistent, it just
	// forgets the in-flight buffers.
	s.Recycle(o.pool)
	return res, err
}
