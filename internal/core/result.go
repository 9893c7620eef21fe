package core

import (
	"fmt"

	"deact/internal/node"
	"deact/internal/sim"
	"deact/internal/stu"
	"deact/internal/translator"
)

// Result holds the steady-state metrics of one run (warmup excluded).
type Result struct {
	Scheme    Scheme
	Benchmark string
	Nodes     int

	// Duration is the measured-phase wall time (simulated).
	Duration sim.Time
	// Instructions retired across all cores during measurement.
	Instructions uint64
	// MemOps issued across all cores during measurement.
	MemOps uint64
	// IPC is aggregate instructions per core-cycle (the paper's
	// performance metric, §IV).
	IPC float64
	// MPKI is L3 (off-chip) misses per kilo-instruction — comparable to
	// Table III's selection metric.
	MPKI float64

	// FAMAT / FAMData split the requests observed at FAM into address
	// translation and demand traffic (Figures 4 and 11).
	FAMAT   uint64
	FAMData uint64
	// ATFraction = FAMAT / (FAMAT + FAMData).
	ATFraction float64

	// TranslationHitRate is the FAM translation hit rate (Figure 10):
	// the STU cache for I-FAM, the in-DRAM translation cache for DeACT,
	// and 1 for E-FAM (no system-level translation exists).
	TranslationHitRate float64
	// ACMHitRate is the access-control metadata hit rate (Figure 9).
	ACMHitRate float64

	// NodeStats, STUStats and TranslatorStats are the per-node raw
	// counters of the measured phase. Each node's Tenants holds one
	// latency set per tenant of the run (Config.TenantCount).
	NodeStats       []node.Stats
	STUStats        []stu.Stats
	TranslatorStats []translator.Stats

	// FAMReads/FAMWrites are device-level access counts.
	FAMReads, FAMWrites uint64
	// FabricPackets is the interconnect traffic.
	FabricPackets uint64
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// result reads the measured phase's Result at the end of the run: the
// counters resetStats zeroed at start, the simulated time since start, and
// the cores' retirements beyond instrs0 and memOps0.
func (s *System) result(start sim.Time, instrs0, memOps0 uint64) Result {
	c := s.cfg
	instrs, memOps := s.retired()
	r := Result{
		Scheme:        c.Scheme,
		Benchmark:     c.Benchmark,
		Nodes:         c.Nodes,
		Duration:      s.engine.Now() - start,
		Instructions:  instrs - instrs0,
		MemOps:        memOps - memOps0,
		FAMReads:      s.fam.Reads(),
		FAMWrites:     s.fam.Writes(),
		FabricPackets: s.fab.Packets(),
	}
	// Every node's tenant sets are carved from one backing slice, and
	// each per-node slice is made at its final length.
	tenants := c.TenantCount()
	sets := make([]node.TenantLatency, len(s.nodes)*tenants)
	r.NodeStats = make([]node.Stats, len(s.nodes))
	r.STUStats = make([]stu.Stats, len(s.nodes))
	r.TranslatorStats = make([]translator.Stats, len(s.nodes))
	var l3 uint64
	for i, n := range s.nodes {
		r.NodeStats[i] = n.Stats()
		r.NodeStats[i].Tenants = n.TenantLatencies(sets[i*tenants : (i+1)*tenants : (i+1)*tenants])
		if u := n.STU(); u != nil {
			r.STUStats[i] = u.Stats()
		}
		if t := n.Translator(); t != nil {
			r.TranslatorStats[i] = t.Stats()
		}
		l3 += n.Hierarchy().L3Cache().Misses()
	}

	var famAT, famData uint64
	for _, ns := range r.NodeStats {
		famAT += ns.FAMAT
		famData += ns.FAMData
	}
	r.FAMAT, r.FAMData = famAT, famData
	r.ATFraction = ratio(famAT, famAT+famData)

	if r.Duration > 0 {
		cycles := float64(r.Duration) / float64(c.CycleTime)
		r.IPC = float64(r.Instructions) / cycles
	}
	if r.Instructions > 0 {
		r.MPKI = float64(l3) / float64(r.Instructions) * 1000
	}

	switch {
	case c.Scheme == EFAM:
		r.TranslationHitRate = 1
		r.ACMHitRate = 1
	case c.Scheme == IFAM:
		var h, m, ah, am uint64
		for _, st := range r.STUStats {
			h += st.TranslationHits
			m += st.TranslationMisses
			ah += st.ACMHits
			am += st.ACMMisses
		}
		r.TranslationHitRate = ratio(h, h+m)
		r.ACMHitRate = ratio(ah, ah+am)
	default:
		var h, m uint64
		for _, tr := range r.TranslatorStats {
			h += tr.Hits
			m += tr.Misses
		}
		r.TranslationHitRate = ratio(h, h+m)
		var ah, am uint64
		for _, st := range r.STUStats {
			ah += st.ACMHits
			am += st.ACMMisses
		}
		r.ACMHitRate = ratio(ah, ah+am)
	}
	return r
}

// String summarizes the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s nodes=%d IPC=%.4f MPKI=%.1f AT=%.1f%% xlate-hit=%.1f%% acm-hit=%.1f%%",
		r.Benchmark, r.Scheme, r.Nodes, r.IPC, r.MPKI,
		r.ATFraction*100, r.TranslationHitRate*100, r.ACMHitRate*100)
}

// TenantLatency aggregates tenant t's measured-phase latency distributions
// across all nodes (merge order cannot matter: histogram merging is
// associative and commutative). Tenants that tagged no traffic return
// empty distributions.
func (r Result) TenantLatency(t int) node.TenantLatency {
	var agg node.TenantLatency
	if t < 0 {
		return agg
	}
	for i := range r.NodeStats {
		if ts := r.NodeStats[i].Tenants; t < len(ts) {
			agg.Merge(ts[t])
		}
	}
	return agg
}

// SteadyLatency merges the latency distributions of every tenant except
// tenant 0 — the "victims" in the noisy-neighbor mix, where tenant 0 is
// the thrashing tenant. With fewer than two tenants it returns tenant 0's
// distributions (everything).
func (r Result) SteadyLatency(tenants int) node.TenantLatency {
	if tenants < 2 {
		return r.TenantLatency(0)
	}
	if tenants > node.MaxTenants {
		tenants = node.MaxTenants
	}
	var agg node.TenantLatency
	for t := 1; t < tenants; t++ {
		agg.Merge(r.TenantLatency(t))
	}
	return agg
}

// Speedup returns r's performance relative to base (IPC ratio), the metric
// behind Figures 3, 12, 13, 14, 15 and 16.
func (r Result) Speedup(base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC / base.IPC
}
