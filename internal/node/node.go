// Package node assembles one compute node of a FAM system: cores' MMUs
// (TLBs + page-table walker), the L1/L2/L3 cache hierarchy, local DRAM, the
// node page table managed by an unmodified OS over the imaginary flat
// node-physical space, and — depending on the scheme — the DeACT FAM
// translator or the I-FAM/E-FAM access paths to the fabric-attached memory.
//
// The node implements the cpu.AccessFunc contract: every memory reference
// is charged through TLB → node page table walk (on miss) → caches →
// local DRAM or the scheme-specific FAM path.
//
// Invariants: Access allocates nothing in steady state (walk buffers and
// writeback scratch are reused; the E-FAM backing table is a dense array),
// every latency is charged through deterministic components, and the
// node's large arrays recycle through internal/arena across runs.
package node

import (
	"encoding/json"
	"fmt"
	"strings"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/arena"
	"deact/internal/broker"
	"deact/internal/cache"
	"deact/internal/fabric"
	"deact/internal/memdev"
	"deact/internal/pagetable"
	"deact/internal/sim"
	"deact/internal/stats"
	"deact/internal/stu"
	"deact/internal/tlb"
	"deact/internal/translator"
	"deact/internal/workload"
)

// Scheme selects the FAM virtual-memory organization (Table I).
type Scheme int

// The four evaluated schemes.
const (
	// EFAM exposes FAM addresses to the node OS: fast, insecure (Fig 2a).
	EFAM Scheme = iota
	// IFAM adds a system translation unit on every FAM access (Fig 2b).
	IFAM
	// DeACTW is DeACT with way-contiguous ACM caching (Fig 8b).
	DeACTW
	// DeACTN is DeACT with non-contiguous sub-way ACM caching (Fig 8c).
	DeACTN
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case EFAM:
		return "E-FAM"
	case IFAM:
		return "I-FAM"
	case DeACTW:
		return "DeACT-W"
	case DeACTN:
		return "DeACT-N"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// UsesDeACT reports whether the scheme runs the decoupled translator path.
func (s Scheme) UsesDeACT() bool { return s == DeACTW || s == DeACTN }

// Name returns the canonical lowercase spelling used by flags and the JSON
// API ("e-fam", "i-fam", "deact-w", "deact-n").
func (s Scheme) Name() string {
	switch s {
	case EFAM:
		return "e-fam"
	case IFAM:
		return "i-fam"
	case DeACTW:
		return "deact-w"
	case DeACTN:
		return "deact-n"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme parses a scheme name: the canonical lowercase spellings, the
// display spellings (case-insensitive), the dash-free contractions, and
// "deact" for DeACT-N.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(s) {
	case "e-fam", "efam":
		return EFAM, nil
	case "i-fam", "ifam":
		return IFAM, nil
	case "deact-w", "deactw":
		return DeACTW, nil
	case "deact-n", "deactn", "deact":
		return DeACTN, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want e-fam, i-fam, deact-w or deact-n)", s)
	}
}

// MarshalJSON encodes the scheme as its canonical name, so the on-disk
// result store and the serve API share one human-readable schema instead of
// leaking iota values.
func (s Scheme) MarshalJSON() ([]byte, error) {
	if s < EFAM || s > DeACTN {
		return nil, fmt.Errorf("node: cannot marshal invalid %v", s)
	}
	return json.Marshal(s.Name())
}

// UnmarshalJSON accepts any spelling ParseScheme does.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("node: scheme must be a JSON string: %w", err)
	}
	parsed, err := ParseScheme(name)
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	*s = parsed
	return nil
}

// Config describes one node. Zero-valued latency fields are allowed (they
// model fully pipelined stages).
type Config struct {
	ID     uint16
	Cores  int
	Scheme Scheme
	Layout addr.Layout

	// LocalEveryN allocates every Nth first-touched page from local DRAM
	// (5 → the paper's 20% local / 80% FAM split).
	LocalEveryN int

	CycleTime sim.Time
	L1Lat     sim.Time
	L2Lat     sim.Time
	L3Lat     sim.Time
	TLBL2Lat  sim.Time

	Hierarchy  cache.HierarchyConfig
	MMU        tlb.MMUConfig
	DRAM       memdev.Config
	STU        stu.Config
	Translator translator.Config
	Prefetch   PrefetchConfig

	Seed int64
}

// Validate checks the configuration, including the translator's under a
// DeACT scheme (the only schemes that build one). New applies it, and so
// does core.Config.Validate, so a config the node cannot build is rejected
// before any construction starts.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("node: cores must be positive")
	case c.LocalEveryN <= 0:
		return fmt.Errorf("node: LocalEveryN must be positive")
	case c.CycleTime == 0:
		return fmt.Errorf("node: zero cycle time")
	}
	if c.Scheme.UsesDeACT() {
		if err := c.Translator.Validate(); err != nil {
			return err
		}
	}
	if err := c.Prefetch.Validate(); err != nil {
		return err
	}
	return c.Layout.Validate()
}

// MaxTenants is the maximum number of distinct tenants a run can tag
// traffic with. It bounds the fixed per-tenant histogram array in Stats:
// fixed arrays (not slices) keep Stats a plain value, so reading it is a
// deep copy and recording stays allocation-free.
const MaxTenants = 8

// TenantLatency is one tenant's latency distributions on a node, split the
// way capacity planning needs them: the VA→NP translation step (TLB/PTW/OS,
// which in I-FAM nests FAM round trips) versus the post-translation memory
// access, with accesses further classed by destination zone (local DRAM vs.
// fabric-attached memory, where the scheme's FAM translation/verification
// cost lives). All samples are in picoseconds (sim.Time units).
type TenantLatency struct {
	// Translation is the latency of resolving the virtual page to a node
	// physical page (zero-latency L1 TLB hits are recorded as 0 samples).
	Translation stats.Histogram
	// Local is the post-translation access latency of references to the
	// node's local DRAM zone.
	Local stats.Histogram
	// FAM is the post-translation access latency of references to the
	// fabric-attached memory zone, including the scheme's translation and
	// verification machinery.
	FAM stats.Histogram
}

// Merge folds o's samples into t (for aggregating across nodes or tenants).
func (t *TenantLatency) Merge(o TenantLatency) {
	t.Translation.Merge(o.Translation)
	t.Local.Merge(o.Local)
	t.FAM.Merge(o.FAM)
}

// Stats aggregates node activity for the paper's figures.
type Stats struct {
	// NodePTWalks counts node-level page-table walks (TLB misses).
	NodePTWalks uint64
	// OSFaults counts first-touch page allocations.
	OSFaults uint64
	// FAMData counts non-address-translation requests observed at FAM
	// (demand data + writebacks), Figure 4's Non-AT.
	FAMData uint64
	// FAMAT counts address-translation requests observed at FAM: FAM
	// page-table steps, ACM fetches, bitmap fetches, and node page-table
	// steps that land in the FAM zone (Figures 4 and 11).
	FAMAT uint64
	// DRAMData counts local DRAM data accesses (excluding the DeACT
	// translation cache, which the translator counts separately).
	DRAMData uint64
	// Writebacks counts dirty blocks written back to memory.
	Writebacks uint64
	// Denied counts accesses rejected by system-level access control.
	Denied uint64

	// Prefetch counts stream-prefetcher activity (all zero when the
	// prefetcher is disabled).
	Prefetch PrefetchStats

	// Tenants holds per-tenant latency distributions, indexed by
	// workload.Op.Tenant. Single-tenant runs record everything under
	// index 0.
	Tenants [MaxTenants]TenantLatency
}

// Node is one compute node.
type Node struct {
	cfg   Config
	brk   *broker.Broker
	fab   *fabric.Fabric
	fam   *memdev.Device
	dram  *memdev.Device
	hier  *cache.Hierarchy
	mmus  []*tlb.MMU
	pt    *pagetable.Table
	trans *translator.Translator
	stuU  *stu.STU
	osa   osAllocator
	pf    *prefetcher // nil when disabled

	// direct is E-FAM's copy of the NP→FAM backing, dense over the FAM
	// zone (index: NP page − first FAM-zone page), storing FAM page + 1 so
	// the zero value means "unbacked". It sits on E-FAM's per-miss path,
	// where it stands in for a 4-level FAM page-table lookup. The
	// OS allocator hands out zone pages in bump order, so the array grows
	// on demand to the allocated prefix instead of the whole zone. The
	// other schemes never read it and keep it empty: the broker's FAM page
	// table is their only record of the backing.
	direct []addr.FPage

	// walker walks the node page table on TLB misses; walkPorts[i]
	// charges core i's walks.
	walker    tlb.Walker
	walkPorts []walkPort

	stats Stats
}

// New builds a node attached to the shared broker, fabric and FAM device.
func New(cfg Config, brk *broker.Broker, fab *fabric.Fabric, fam *memdev.Device) (*Node, error) {
	return NewInArena(nil, cfg, brk, fab, fam)
}

// NewInArena is New drawing the node and its construction-time memory —
// cache line arrays, the MMUs, the STU, the page table, the translator,
// the local DRAM device with its calendars, the walk buffer and the OS
// direct-backing table — from a. A nil arena allocates normally.
func NewInArena(a *arena.Arena, cfg Config, brk *broker.Broker, fab *fabric.Fabric, fam *memdev.Device) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if brk == nil || fab == nil || fam == nil {
		return nil, fmt.Errorf("node: broker, fabric and FAM device required")
	}
	if fam.PortLatency() > fab.PacketTime() {
		return nil, fmt.Errorf("node: FAM port latency %d ps exceeds the fabric packet time %d ps (famRT serves link-paced arrivals unqueued)",
			fam.PortLatency(), fab.PacketTime())
	}
	// The node value (~10KB, most of it the per-tenant histograms)
	// recycles like its arrays.
	n := arena.Alloc[Node](a, "node.Node")
	n.cfg = cfg
	n.brk = brk
	n.fab = fab
	n.fam = fam
	n.dram = memdev.NewInArena(a, "memdev.dram", cfg.DRAM)
	// Length 0: backWithFAM extends (zeroing) on demand under E-FAM, so a
	// recycled buffer regrows to its previous high-water mark
	// allocation-free.
	if cfg.Scheme == EFAM {
		n.direct = arena.Slice[addr.FPage](a, "node.direct", 0)
	}
	if cfg.Prefetch.Enabled() {
		n.pf = newPrefetcher(cfg.Prefetch)
	}

	var err error
	n.hier, err = cache.NewHierarchyInArena(a, cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	n.mmus = arena.Slice[*tlb.MMU](a, "node.mmus", cfg.Cores)
	n.walkPorts = arena.Slice[walkPort](a, "node.walkPorts", cfg.Cores)
	for i := range n.mmus {
		if n.mmus[i], err = tlb.NewMMUInArena(a, cfg.MMU); err != nil {
			return nil, err
		}
		n.walkPorts[i] = walkPort{n: n, core: i}
	}

	// The OS allocator: DeACT reserves the top of DRAM for the FAM
	// translation cache.
	reserved := uint64(0)
	if cfg.Scheme.UsesDeACT() {
		reserved = cfg.Translator.CacheBytes
	}
	n.osa = newOSAllocator(cfg.Layout, reserved, cfg.LocalEveryN)

	// Node page table: kernel table pages follow the same 20/80 placement
	// as data (the property that inflates I-FAM's nested walks).
	n.pt, err = pagetable.NewInArena(a, "pagetable.node", fmt.Sprintf("node%d.pt", cfg.ID), n.tablePage)
	if err != nil {
		return nil, err
	}
	n.walker = tlb.NewWalker(a, n.pt)

	if cfg.Scheme != EFAM {
		tbl, err := brk.NodeTable(cfg.ID)
		if err != nil {
			return nil, err
		}
		n.stuU, err = stu.NewInArena(a, cfg.STU, cfg.ID, cfg.Layout, brk.Meta(), tbl, n.famAT, n.mapFAM)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Scheme.UsesDeACT() {
		tc := cfg.Translator
		tc.CacheBase = addr.NPAddr(cfg.Layout.DRAMSize - tc.CacheBytes)
		n.trans, err = translator.NewInArena(a, tc, n.dram, cfg.Seed+101)
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Recycle returns the node and its construction-time memory to a for the
// next run's construction (the broker's tables are recycled by the broker,
// not here). The node must not be used afterwards.
func (n *Node) Recycle(a *arena.Arena) {
	n.hier.Recycle(a)
	for _, m := range n.mmus {
		m.Recycle(a)
	}
	n.pt.Recycle(a)
	if n.stuU != nil {
		n.stuU.Recycle(a)
	}
	if n.trans != nil {
		n.trans.Recycle(a)
	}
	n.dram.Recycle(a)
	n.walker.Recycle(a)
	arena.Release(a, "node.mmus", n.mmus)
	arena.Release(a, "node.walkPorts", n.walkPorts)
	arena.Release(a, "node.direct", n.direct)
	arena.Free(a, "node.Node", n)
}

// famZoneIndex converts a FAM-zone NP page to its dense direct[] index.
// Callers guarantee p is in the FAM zone.
func (n *Node) famZoneIndex(p addr.NPPage) uint64 {
	return uint64(p) - uint64(n.cfg.Layout.FAMZoneBase().Page())
}

// backWithFAM gives an NP FAM-zone page a real FAM backing via the broker,
// which installs it in the node's FAM page table. E-FAM also records it in
// direct, which its per-access path reads.
func (n *Node) backWithFAM(p addr.NPPage) error {
	if n.cfg.Scheme != EFAM {
		_, err := n.brk.MapForNode(n.cfg.ID, p)
		return err
	}
	i := n.famZoneIndex(p)
	if i >= uint64(len(n.direct)) {
		n.direct = arena.Extend(n.direct, int(i)+1)
	}
	if n.direct[i] != 0 {
		return nil
	}
	fp, err := n.brk.MapForNode(n.cfg.ID, p)
	if err != nil {
		return err
	}
	n.direct[i] = fp + 1
	return nil
}

// famRT performs one 64B round trip to the FAM device over the fabric.
// Arrivals at the device are paced by the shared to-FAM link, at least one
// packet time apart, so the device port never queues (see memdev) and is
// charged as a fixed delay; NewInArena enforces the bound that needs.
func (n *Node) famRT(now sim.Time, fa addr.FAddr, write bool) sim.Time {
	arrive := n.fab.Traverse(now, fabric.ToFAM)
	done := n.fam.AccessSpaced(arrive, uint64(fa), write)
	return n.fab.Traverse(done, fabric.ToNode)
}

// famAT is the STU's FAM access path; every call is translation metadata
// traffic (FAM page-table steps, ACM blocks, bitmaps).
func (n *Node) famAT(now sim.Time, fa addr.FAddr, write bool) sim.Time {
	n.stats.FAMAT++
	return n.famRT(now, fa, write)
}

// Access implements cpu.AccessFunc: one full memory reference. The op's
// tenant tag selects which per-tenant histogram set observes the
// reference's translation and access latency; recording is observation
// only (no RNG draws, no timing effect), so tagged and untagged runs are
// cycle-identical.
func (n *Node) Access(now sim.Time, coreID int, op workload.Op) (sim.Time, error) {
	tid := op.Tenant
	if tid >= MaxTenants { // out-of-contract tags clamp rather than corrupt
		tid = MaxTenants - 1
	}
	ts := &n.stats.Tenants[tid]
	npPage, t, err := n.translate(now, coreID, op.Addr.Page())
	if err != nil {
		return t, err
	}
	ts.Translation.Record(uint64(t - now))
	npa := addr.NPFromVP(npPage, op.Addr.Offset())
	done, err := n.memAccess(t, coreID, npa, op.Write, false)
	if err != nil {
		return done, err
	}
	if n.cfg.Layout.InLocalZone(npa) {
		ts.Local.Record(uint64(done - t))
	} else {
		ts.FAM.Record(uint64(done - t))
	}
	if n.pf != nil {
		n.prefetch(done, coreID, op.PC, npa)
	}
	return done, nil
}

// translate resolves a virtual page through the TLBs, walking the node
// page table (through the memory system) on a miss, with first-touch
// allocation by the node OS.
func (n *Node) translate(now sim.Time, coreID int, vp addr.VPage) (addr.NPPage, sim.Time, error) {
	m := n.mmus[coreID]
	if v, lvl := m.Lookup(uint64(vp)); lvl != tlb.MissBoth {
		t := now
		if lvl == tlb.HitL2 {
			t += n.cfg.TLBL2Lat
		}
		return addr.NPPage(v), t, nil
	}

	n.stats.NodePTWalks++
	v, t, err := n.walker.Walk(now, uint64(vp), m.PTW, &n.walkPorts[coreID])
	switch err {
	case nil:
	case tlb.ErrFaultUnmapped:
		return 0, t, fmt.Errorf("node %d: PTE missing after OS fault for vpage %#x", n.cfg.ID, vp)
	case tlb.ErrFaultMismatch:
		return 0, t, fmt.Errorf("node %d: OS fault installed inconsistent mapping", n.cfg.ID)
	default:
		return 0, t, err
	}
	m.Insert(uint64(vp), v)
	return addr.NPPage(v), t, nil
}

// walkPort charges one core's node page-table walks: entries are ordinary
// cached memory (PTW data washes through the data caches as on real
// hardware), and an unmapped page is the OS's first touch.
type walkPort struct {
	n    *Node
	core int
}

func (p *walkPort) ReadEntry(now sim.Time, entryAddr uint64) (sim.Time, error) {
	return p.n.memAccess(now, p.core, addr.NPAddr(entryAddr), false, true)
}

func (p *walkPort) Fault(vp uint64) (uint64, error) {
	np, err := p.n.osFault(addr.VPage(vp))
	return uint64(np), err
}

// allocPage takes the OS allocator's next page, backing it with FAM when
// it falls in the FAM zone.
func (n *Node) allocPage() (addr.NPPage, error) {
	p, err := n.osa.Alloc()
	if err != nil {
		return 0, err
	}
	if n.cfg.Layout.InFAMZone(p.Addr()) {
		if err := n.backWithFAM(p); err != nil {
			return 0, err
		}
	}
	return p, nil
}

// tablePage places one node page-table page.
func (n *Node) tablePage() (uint64, error) {
	p, err := n.allocPage()
	return uint64(p), err
}

// mapFAM is the STU's broker fault service for the node's pages.
func (n *Node) mapFAM(np addr.NPPage) (addr.FPage, error) {
	return n.brk.MapForNode(n.cfg.ID, np)
}

// osFault performs the OS' first-touch allocation for vp.
func (n *Node) osFault(vp addr.VPage) (addr.NPPage, error) {
	n.stats.OSFaults++
	p, err := n.allocPage()
	if err != nil {
		return 0, err
	}
	if err := n.pt.Map(uint64(vp), uint64(p)); err != nil {
		return 0, err
	}
	return p, nil
}

// memAccess charges one 64B reference through caches and memory. isAT marks
// node page-table traffic (so FAM-zone PTW steps are counted as AT requests
// at the FAM, Figure 4).
func (n *Node) memAccess(now sim.Time, coreID int, npa addr.NPAddr, write bool, isAT bool) (sim.Time, error) {
	lvl, wbs := n.hier.Access(coreID, uint64(npa.Block()), write)
	t := now
	switch lvl {
	case cache.L1:
		t += n.cfg.L1Lat
	case cache.L2:
		t += n.cfg.L1Lat + n.cfg.L2Lat
	case cache.L3, cache.Memory:
		t += n.cfg.L1Lat + n.cfg.L2Lat + n.cfg.L3Lat
	}
	// Dirty victims leave the chip regardless of where the demand hit.
	for _, wb := range wbs {
		n.writeback(t, wb)
	}
	if lvl != cache.Memory {
		return t, nil
	}
	return n.memoryPath(t, npa, write, isAT)
}

// memoryPath routes a cache-missing reference to local DRAM or to FAM via
// the scheme's translation/verification machinery.
func (n *Node) memoryPath(now sim.Time, npa addr.NPAddr, write bool, isAT bool) (sim.Time, error) {
	if n.cfg.Layout.InLocalZone(npa) {
		n.stats.DRAMData++
		return n.dram.Access(now, uint64(npa), write), nil
	}
	if !n.cfg.Layout.InFAMZone(npa) {
		return now, fmt.Errorf("node %d: access to unmapped physical address %#x", n.cfg.ID, npa)
	}

	want := acm.PermR
	if write {
		want = acm.PermRW
	}
	np := npa.Page()

	countData := func() {
		if isAT {
			n.stats.FAMAT++
		} else {
			n.stats.FAMData++
		}
	}

	switch n.cfg.Scheme {
	case EFAM:
		i := n.famZoneIndex(np)
		if i >= uint64(len(n.direct)) || n.direct[i] == 0 {
			return now, fmt.Errorf("node %d: E-FAM access to unbacked page %#x", n.cfg.ID, np)
		}
		fp := n.direct[i] - 1
		countData()
		return n.famRT(now, addr.FFromNP(fp, npa.Offset()), write), nil

	case IFAM:
		t, fp, d, err := n.stuU.TranslateAndVerify(now, np, want)
		if err != nil {
			return t, err
		}
		if !d.Allowed {
			n.stats.Denied++
			return t, fmt.Errorf("node %d: access denied: %s", n.cfg.ID, d.DeniedReason)
		}
		countData()
		return n.famRT(t, addr.FFromNP(fp, npa.Offset()), write), nil

	default: // DeACT-W / DeACT-N
		t, fp, hit := n.trans.Lookup(now, np)
		var d acm.Decision
		var err error
		if hit {
			// V=1: the node supplies the FAM address; the STU only vets it.
			t, d = n.stuU.VerifyMapped(t, fp, want)
		} else {
			// V=0: the STU walks the FAM page table on our behalf and
			// returns the mapping, which we cache (off the critical path).
			t, fp, d, err = n.stuU.HandleUnmapped(t, np, want)
			if err != nil {
				return t, err
			}
			n.trans.Update(t, np, fp)
		}
		if !d.Allowed {
			n.stats.Denied++
			return t, fmt.Errorf("node %d: access denied: %s", n.cfg.ID, d.DeniedReason)
		}
		countData()
		// Responses carry FAM addresses; the outstanding-mapping list
		// converts them back and bounds in-flight requests (128, Table II).
		fa := addr.FFromNP(fp, npa.Offset())
		var fin sim.Time
		n.trans.ReserveSlot(t, func(start sim.Time) sim.Time {
			fin = n.famRT(start, fa, write)
			return fin
		})
		return fin, nil
	}
}

// writeback retires a dirty block to memory, fire-and-forget. Denials here
// indicate a forged translation was used for a store; they are counted and
// the block is dropped (the data never leaves the node).
func (n *Node) writeback(now sim.Time, blockAddr uint64) {
	n.stats.Writebacks++
	if _, err := n.memoryPath(now, addr.NPAddr(blockAddr), true, false); err != nil {
		n.stats.Denied++
	}
}

// Bind attaches the engine clock to the node's contended resources (local
// DRAM banks and the STU port) so their reservation calendars retire state
// entirely in the past. The shared fabric and FAM device are bound once by
// the system assembler, not per node.
func (n *Node) Bind(c sim.Clock) {
	n.dram.Bind(c)
	if n.stuU != nil {
		n.stuU.Bind(c)
	}
}

// Stats returns the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// ResetStats zeroes the node's counters and those of its STU, translator
// and cache hierarchy, so a later read covers only what follows. Cached
// state, mappings and reservations stay.
func (n *Node) ResetStats() {
	n.stats = Stats{}
	if n.stuU != nil {
		n.stuU.ResetStats()
	}
	if n.trans != nil {
		n.trans.ResetStats()
	}
	n.hier.ResetStats()
}

// STU returns the node's STU (nil for E-FAM).
func (n *Node) STU() *stu.STU { return n.stuU }

// Translator returns the node's FAM translator (nil outside DeACT).
func (n *Node) Translator() *translator.Translator { return n.trans }

// DRAM returns the node's local memory device.
func (n *Node) DRAM() *memdev.Device { return n.dram }

// Hierarchy returns the node's cache hierarchy.
func (n *Node) Hierarchy() *cache.Hierarchy { return n.hier }

// PageTable returns the node page table (tests and migration).
func (n *Node) PageTable() *pagetable.Table { return n.pt }

// MMU returns core i's MMU.
func (n *Node) MMU(i int) *tlb.MMU { return n.mmus[i] }

// ID returns the node's ID.
func (n *Node) ID() uint16 { return n.cfg.ID }

// Scheme returns the node's scheme.
func (n *Node) Scheme() Scheme { return n.cfg.Scheme }

// FlushTranslations models the node-side shootdown of a job migration
// (§VI): TLBs, PTW caches, the unverified translation cache, and the STU
// state all drop. It returns the number of dirty translation-cache lines
// invalidated (DRAM write cost, charged by the caller).
func (n *Node) FlushTranslations() uint64 {
	for _, m := range n.mmus {
		m.Flush()
	}
	var dirty uint64
	if n.trans != nil {
		dirty = n.trans.InvalidateAll()
	}
	if n.stuU != nil {
		n.stuU.Flush()
	}
	return dirty
}
