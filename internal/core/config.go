// Package core is the public face of the DeACT reproduction: it assembles
// broker, fabric, FAM, nodes, and cores into a runnable system, executes a
// benchmark under one of the four schemes (E-FAM, I-FAM, DeACT-W, DeACT-N),
// and reports the metrics the paper's figures are built from.
package core

import (
	"errors"
	"fmt"
	"math"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/cache"
	"deact/internal/memdev"
	"deact/internal/node"
	"deact/internal/sim"
	"deact/internal/stu"
	"deact/internal/tlb"
	"deact/internal/translator"
	"deact/internal/workload"
)

// Scheme aliases node.Scheme so callers only import core.
type Scheme = node.Scheme

// The four evaluated schemes.
const (
	EFAM   = node.EFAM
	IFAM   = node.IFAM
	DeACTW = node.DeACTW
	DeACTN = node.DeACTN
)

// Schemes lists all four in presentation order.
func Schemes() []Scheme { return []Scheme{EFAM, IFAM, DeACTW, DeACTN} }

// Core timing models for Config.CoreModel.
const (
	// CoreInOrder is the default issue-width + miss-window in-order model;
	// an empty CoreModel means the same thing.
	CoreInOrder = "in-order"
	// CoreOoO is the out-of-order model: a WindowSize-entry scheduling
	// window with register-style chain dependencies and a SchedulerLatency
	// wakeup stage.
	CoreOoO = "ooo"
)

// Config describes one simulation run. DefaultConfig mirrors Table II,
// scaled ~16× down in capacity the same way the paper scales its own memory
// sizes against application footprints (§IV footnote 3); all ratios
// (local:FAM capacity, footprint:cache reach) are preserved.
//
// One rule covers the fields that matter only in some runs: normalize
// scheme-dependent fields, and reject knobs whose own enabling switch is
// off. A field the chosen scheme never reads — E-FAM's STU and translator
// fields, I-FAM's translator fields, PairsPerWay and TrustReads outside
// the schemes that read them — is accepted and left out of run identity
// (Fingerprint), since sweeps legitimately vary STU fields across all four
// schemes. Validate stays scheme-blind: such a field is still checked, so
// a config's validity never depends on its scheme or on the configs it
// merges with. A knob set while its own switch is off (WindowSize without
// CoreOoO, PatternDegree without a Pattern, a prefetch knob without
// PrefetchStreams) fails Validate.
type Config struct {
	// Scheme selects the virtual-memory organization.
	Scheme Scheme
	// Benchmark is a Table III workload name (workload.Names).
	Benchmark string
	// Nodes is the number of compute nodes sharing the fabric and FAM
	// (Figure 16 sweeps 1–8).
	Nodes int
	// CoresPerNode is 4 in Table II; at most cache.MaxCores (8).
	CoresPerNode int
	// WarmupInstructions run per core before measurement starts, so the
	// reported rates reflect steady state rather than cold misses.
	WarmupInstructions uint64
	// MeasureInstructions run per core during the measured phase.
	MeasureInstructions uint64
	// Seed drives all randomness (placement, workloads, replacement).
	Seed int64

	// Layout scales the memory system.
	Layout addr.Layout

	// CycleTime is the core clock period (500ps = 2GHz).
	CycleTime sim.Time
	// IssueWidth is instructions per cycle (2).
	IssueWidth int
	// MaxOutstanding is the per-core miss window (32).
	MaxOutstanding int

	// CoreModel selects the core timing model: "" or CoreInOrder (the
	// default, so every existing golden stands byte-for-byte) or CoreOoO.
	// Under CoreOoO, independent references still overlap up to
	// MaxOutstanding; dependent (pointer-chase) loads serialize through a
	// chain register but the core issues past them up to WindowSize-1 ops
	// deep instead of stalling.
	CoreModel string
	// WindowSize is the OoO scheduling window in ops (entries, ~32): how
	// far the core runs ahead of an incomplete dependent load before
	// stalling. Requires CoreModel == CoreOoO and must be >= 1 there; a
	// one-entry window is bit-identical to the in-order model.
	WindowSize int
	// SchedulerLatency is the OoO wakeup/select stage in core cycles (2 in
	// the MLP sweep): the delay between a chain load completing and its
	// dependent issuing. Requires CoreModel == CoreOoO; 0 is a valid
	// zero-latency scheduler.
	SchedulerLatency int

	// L1/L2/L3 cache latencies; hierarchy geometry below.
	L1Lat, L2Lat, L3Lat sim.Time
	TLBL2Lat            sim.Time
	Hierarchy           cache.HierarchyConfig
	MMU                 tlb.MMUConfig

	// DRAMCfg and FAMCfg are the device timing models (Table II: NVM read
	// 60ns / write 150ns, 32 banks).
	DRAMCfg memdev.Config
	FAMCfg  memdev.Config

	// FabricLatency is the one-way interconnect latency (500ns; Figure 15
	// sweeps 100ns–6µs). FabricPacketTime serializes packets at the shared
	// link.
	FabricLatency    sim.Time
	FabricPacketTime sim.Time

	// STUEntries/STUWays size the STU cache (1024/8; Figures 13 and the
	// associativity sweep). PairsPerWay overrides DeACT-N packing
	// (Figure 14); no other scheme reads it. E-FAM has no STU and reads
	// none of the four.
	STUEntries  int
	STUWays     int
	PairsPerWay int
	STULookup   sim.Time

	// TranslationCacheBytes sizes DeACT's in-DRAM FAM translation cache
	// (1MB in the paper, scaled by default). Only the DeACT schemes build
	// the translator, so only they read it and Outstanding.
	TranslationCacheBytes uint64
	// Outstanding is the outstanding-mapping-list depth (128).
	Outstanding int

	// LocalEveryN implements the 20%/80% local/FAM placement (5).
	LocalEveryN int

	// Tenants is the number of tenants sharing the system. Cores are
	// assigned round-robin by global core index (node-major), and every
	// memory reference is tagged with its core's tenant so node.Stats can
	// attribute latency per tenant. 0 or 1 means single-tenant: all traffic
	// is recorded under tenant 0 and behavior is identical to a build
	// without tenancy. At most node.MaxTenants.
	Tenants int
	// NoisyBenchmark, when non-empty, makes tenant 0 run this workload
	// instead of Benchmark — the noisy-neighbor mix the capacity sweep
	// uses (one thrashing tenant, Tenants-1 steady tenants). Requires
	// Tenants >= 2.
	NoisyBenchmark string

	// TrustReads enables the §III-A encrypted-memory optimization: reads
	// skip access control (per-node encryption keys make stolen reads
	// useless ciphertext). The read-trust ablation flips this. Only the
	// DeACT schemes read it: I-FAM's coupled STU entry checks every
	// access in the same lookup that translates it.
	TrustReads bool

	// Pattern overrides the benchmark profile's access-pattern generator:
	// "" (or "skew") keeps the default probabilistic skew model;
	// "pointer-chase", "graph-frontier" and "stencil" select the workload
	// v2 structured generators (workload.Patterns), which keep the
	// benchmark's footprint, intensity and write mix but impose their own
	// access structure.
	Pattern string
	// PatternDegree is the selected pattern's parallelism dial (payload
	// blocks per chase node / mean out-degree / stencil stream count;
	// units are accesses, not bytes). 0 uses the pattern's default;
	// requires a non-empty Pattern.
	PatternDegree int

	// PrefetchStreams enables the node-side PC-keyed stream prefetcher
	// with this many tracked PC entries (rounded up to a power of two).
	// 0 disables the prefetcher entirely — the default, and bit-identical
	// to builds without the feature.
	PrefetchStreams int
	// PrefetchDegree is blocks fetched ahead per confirmed-stream trigger
	// (64B blocks; 0 → default 2).
	PrefetchDegree int
	// PrefetchThreshold is the consecutive same-delta accesses a PC needs
	// before its stream is confirmed (0 → default 2).
	PrefetchThreshold int

	// TraceID pins this run to a recorded access trace: it must equal the
	// trace.Trace ID supplied via core.WithTrace, and it gives replay runs
	// their own fingerprint (cache/dedup identity) per trace.
	// Empty for synthesized runs.
	TraceID string
}

// DefaultConfig returns the Table II system, scaled for tractable runs.
func DefaultConfig() Config {
	return Config{
		Scheme:              DeACTN,
		Benchmark:           "mcf",
		Nodes:               1,
		CoresPerNode:        4,
		WarmupInstructions:  120_000,
		MeasureInstructions: 120_000,
		Seed:                42,

		Layout: addr.Layout{
			// 1GB DRAM : 16GB FAM in the paper → 64MB : 1GB here (÷16);
			// the FAM zone gives each node a 448MB window.
			DRAMSize:    64 << 20,
			FAMZoneSize: 448 << 20,
			FAMSize:     1 << 30,
			ACMBits:     16,
		},

		CycleTime:      500, // ps → 2GHz
		IssueWidth:     2,
		MaxOutstanding: 32,

		L1Lat: sim.NS(1), L2Lat: sim.NS(4), L3Lat: sim.NS(10),
		TLBL2Lat: sim.NS(2),
		// Cache capacities scale with the 4×-scaled footprints (paper: 32KB /
		// 256KB / 1MB against ~300MB footprints) so page-table blocks and
		// data contend for the L3 the way they do at full scale.
		Hierarchy: cache.HierarchyConfig{
			L1Size: 8 << 10, L1Ways: 8,
			L2Size: 64 << 10, L2Ways: 8,
			L3Size: 256 << 10, L3Ways: 16,
		},
		MMU: tlb.MMUConfig{L1Entries: 32, L1Ways: 4, L2Entries: 256, L2Ways: 8, PTWEntries: 32},

		DRAMCfg: memdev.Config{Name: "dram", Banks: 16,
			ReadLatency: sim.NS(60), WriteLatency: sim.NS(60), PortLatency: sim.NS(1)},
		FAMCfg: memdev.Config{Name: "fam-nvm", Banks: 32,
			ReadLatency: sim.NS(60), WriteLatency: sim.NS(150), PortLatency: sim.NS(2)},

		FabricLatency:    sim.NS(500),
		FabricPacketTime: sim.NS(50), // 64B at ~1.3GB/s per shared link direction

		STUEntries: 1024,
		STUWays:    8,
		STULookup:  sim.NS(2),

		// 1MB against 16GB FAM in the paper; kept proportionally larger here
		// (256KB → 16384 entries) so the scaled footprints fit the way the
		// paper's footprints fit its 65536 entries.
		TranslationCacheBytes: 256 << 10,
		Outstanding:           128,

		LocalEveryN: 5,
	}
}

// ErrInvalidConfig is wrapped by every Validate failure, so callers that
// submit fully-built configs can distinguish a bad configuration from a
// simulation failure with errors.Is.
var ErrInvalidConfig = errors.New("core: invalid config")

// Validate checks the configuration. It is a pure check on a value
// receiver: derived fields (Hierarchy.Cores) are normalized where they are
// consumed — nodeConfig and Fingerprint — not mutated here.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("%w: Nodes must be positive", ErrInvalidConfig)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("%w: CoresPerNode must be positive", ErrInvalidConfig)
	case c.MeasureInstructions == 0:
		return fmt.Errorf("%w: MeasureInstructions must be positive", ErrInvalidConfig)
	case c.WarmupInstructions > math.MaxUint64-c.MeasureInstructions:
		return fmt.Errorf("%w: WarmupInstructions+MeasureInstructions overflows uint64", ErrInvalidConfig)
	case c.CycleTime == 0:
		return fmt.Errorf("%w: CycleTime must be positive", ErrInvalidConfig)
	case c.IssueWidth <= 0:
		return fmt.Errorf("%w: IssueWidth must be positive", ErrInvalidConfig)
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("%w: MaxOutstanding must be positive", ErrInvalidConfig)
	}
	switch {
	case c.CoreModel != "" && c.CoreModel != CoreInOrder && c.CoreModel != CoreOoO:
		return fmt.Errorf("%w: unknown CoreModel %q (have %q, %q)", ErrInvalidConfig, c.CoreModel, CoreInOrder, CoreOoO)
	case c.CoreModel == CoreOoO && c.WindowSize <= 0:
		return fmt.Errorf("%w: CoreModel %q requires WindowSize >= 1 ops", ErrInvalidConfig, CoreOoO)
	case c.CoreModel == CoreOoO && c.SchedulerLatency < 0:
		return fmt.Errorf("%w: SchedulerLatency must be non-negative (cycles)", ErrInvalidConfig)
	case c.CoreModel != CoreOoO && (c.WindowSize != 0 || c.SchedulerLatency != 0):
		return fmt.Errorf("%w: WindowSize/SchedulerLatency require CoreModel %q", ErrInvalidConfig, CoreOoO)
	}
	if _, err := workload.Get(c.Benchmark); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	switch {
	case c.Tenants < 0 || c.Tenants > node.MaxTenants:
		return fmt.Errorf("%w: Tenants %d out of [0, %d]", ErrInvalidConfig, c.Tenants, node.MaxTenants)
	case c.Tenants > c.Nodes*c.CoresPerNode:
		return fmt.Errorf("%w: Tenants %d exceeds total cores %d (a tenant would own no core)",
			ErrInvalidConfig, c.Tenants, c.Nodes*c.CoresPerNode)
	}
	if c.NoisyBenchmark != "" {
		if c.Tenants < 2 {
			return fmt.Errorf("%w: NoisyBenchmark requires Tenants >= 2 (got %d)", ErrInvalidConfig, c.Tenants)
		}
		if _, err := workload.Get(c.NoisyBenchmark); err != nil {
			return fmt.Errorf("%w: NoisyBenchmark: %w", ErrInvalidConfig, err)
		}
	}
	switch {
	case !workload.ValidPattern(c.Pattern):
		return fmt.Errorf("%w: unknown Pattern %q (have %v)", ErrInvalidConfig, c.Pattern, workload.Patterns())
	case c.PatternDegree < 0:
		return fmt.Errorf("%w: PatternDegree must be non-negative", ErrInvalidConfig)
	case c.PatternDegree > 0 && c.Pattern == "":
		return fmt.Errorf("%w: PatternDegree requires a Pattern", ErrInvalidConfig)
	case c.PrefetchStreams < 0 || c.PrefetchDegree < 0 || c.PrefetchThreshold < 0:
		return fmt.Errorf("%w: prefetch parameters must be non-negative", ErrInvalidConfig)
	case (c.PrefetchDegree > 0 || c.PrefetchThreshold > 0) && c.PrefetchStreams == 0:
		return fmt.Errorf("%w: prefetch knobs require PrefetchStreams > 0", ErrInvalidConfig)
	case c.TraceID != "" && c.Pattern != "":
		return fmt.Errorf("%w: TraceID and Pattern are mutually exclusive (a replay does not synthesize)", ErrInvalidConfig)
	}
	if err := c.Layout.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	// Nodes are numbered from 1 and the all-ones ID marks shared pages, so
	// the ACM width caps the node count (the broker rejects larger IDs).
	if limit := acm.MaxNodes(c.Layout.ACMBits); c.Nodes >= limit {
		return fmt.Errorf("%w: Nodes %d needs more than the %d-bit ACM ID space (at most %d nodes)",
			ErrInvalidConfig, c.Nodes, c.Layout.ACMBits, limit-1)
	}
	// FAM arrivals are paced by the shared to-FAM link, one FabricPacketTime
	// apart at least, so the FAM port is modelled as a fixed delay (see
	// memdev). A port slower than the link could queue; node.New refuses
	// that pairing too.
	if c.FAMCfg.PortLatency > c.FabricPacketTime {
		return fmt.Errorf("%w: FAMCfg.PortLatency %d ps exceeds FabricPacketTime %d ps (the FAM port serves link-paced arrivals unqueued)",
			ErrInvalidConfig, c.FAMCfg.PortLatency, c.FabricPacketTime)
	}
	// The rules NewSystem's constructors enforce, through the same functions
	// they call: the node's own (LocalEveryN, and the translator under a
	// DeACT scheme), the geometries and the two memory devices. Every
	// scheme's STU geometry is checked, E-FAM's included, so a geometry's
	// validity does not depend on the scheme.
	nc := c.nodeConfig(0)
	for _, err := range [...]error{nc.Validate(), nc.Hierarchy.Validate(), nc.MMU.Validate(), nc.STU.Validate(),
		nc.DRAM.Validate(), c.FAMCfg.Validate()} {
		if err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
	}
	return nil
}

// tenantFor returns the tenant of core ci on node ni (both 0-based):
// round-robin over the global node-major core index, so tenants interleave
// across nodes and every tenant gets cores on as many nodes as possible.
func (c Config) tenantFor(ni, ci int) uint8 {
	if c.Tenants <= 1 {
		return 0
	}
	return uint8((ni*c.CoresPerNode + ci) % c.Tenants)
}

// benchmarkFor returns the workload a given tenant runs: NoisyBenchmark for
// tenant 0 when the noisy-neighbor mix is on, Benchmark otherwise.
func (c Config) benchmarkFor(tenant uint8) string {
	if tenant == 0 && c.NoisyBenchmark != "" {
		return c.NoisyBenchmark
	}
	return c.Benchmark
}

// stuOrg maps a scheme to its STU organization (E-FAM has no STU).
func stuOrg(s Scheme) stu.Organization {
	switch s {
	case DeACTW:
		return stu.OrgDeACTW
	case DeACTN:
		return stu.OrgDeACTN
	default:
		return stu.OrgIFAM
	}
}

// nodeConfig derives the per-node configuration.
func (c Config) nodeConfig(id uint16) node.Config {
	h := c.Hierarchy
	h.Cores = c.CoresPerNode
	return node.Config{
		ID:          id,
		Cores:       c.CoresPerNode,
		Scheme:      c.Scheme,
		Layout:      c.Layout,
		LocalEveryN: c.LocalEveryN,
		CycleTime:   c.CycleTime,
		L1Lat:       c.L1Lat, L2Lat: c.L2Lat, L3Lat: c.L3Lat, TLBL2Lat: c.TLBL2Lat,
		Hierarchy: h,
		MMU:       c.MMU,
		DRAM:      c.DRAMCfg,
		STU: stu.Config{
			Entries: c.STUEntries, Ways: c.STUWays, Org: stuOrg(c.Scheme),
			ACMBits: c.Layout.ACMBits, PairsPerWay: c.PairsPerWay,
			PTWCacheEntries: c.MMU.PTWEntries, LookupTime: c.STULookup,
			TrustReads: c.TrustReads,
		},
		Translator: translator.Config{
			CacheBytes:   c.TranslationCacheBytes,
			Outstanding:  c.Outstanding,
			TagMatchTime: c.CycleTime,
		},
		Prefetch: node.PrefetchConfig{
			Streams:   c.PrefetchStreams,
			Degree:    c.PrefetchDegree,
			Threshold: c.PrefetchThreshold,
		},
		Seed: c.Seed + int64(id)*1000,
	}
}
