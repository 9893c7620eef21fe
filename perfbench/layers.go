package main

// The per-layer metrics of the traced run. Names are "<layer>.<what>"; a
// layer is a simulator package (deact/internal/<layer>) or "runtime".

// selfLayers are the packages whose share of CPU self time is reported as
// <layer>.self_share.
var selfLayers = []string{"sim", "cpu", "workload", "node", "cache", "tlb", "pagetable", "stu", "acm",
	"translator", "fabric", "memdev", "broker", "arena", "core", "experiments", "resultstore", "runtime"}

// allocLayers are the packages whose share of the bytes allocated during
// the traced run is reported as <layer>.alloc_share.
var allocLayers = []string{"sim", "pagetable", "acm", "broker", "arena"}

// entries are the functions whose cumulative share of CPU time (the
// function and everything it calls) is reported as <name>.cum_share.
var entries = []entry{
	{"node.Access", "deact/internal/node", "Node", "Access"},
	{"stu.TranslateAndVerify", "deact/internal/stu", "STU", "TranslateAndVerify"},
	{"stu.VerifyMapped", "deact/internal/stu", "STU", "VerifyMapped"},
	{"stu.HandleUnmapped", "deact/internal/stu", "STU", "HandleUnmapped"},
	{"translator.Lookup", "deact/internal/translator", "Translator", "Lookup"},
	{"cache.Hierarchy.Access", "deact/internal/cache", "Hierarchy", "Access"},
	{"tlb.MMU.Lookup", "deact/internal/tlb", "MMU", "Lookup"},
	{"pagetable.WalkAppend", "deact/internal/pagetable", "Table", "WalkAppend"},
	{"fabric.Traverse", "deact/internal/fabric", "Fabric", "Traverse"},
	{"memdev.Access", "deact/internal/memdev", "Device", "Access"},
	{"sim.Server.Acquire", "deact/internal/sim", "Server", "Acquire"},
	{"workload.Source.Next", "deact/internal/workload", "*", "Next"}, // any source type
}

// layerMap says, before anything is measured, which end-to-end metric each
// per-layer metric should move and on which workload. Later changes cite
// these names when they claim a gain.
var layerMap = []struct{ layers, moves string }{
	{"sim.self_share stu.self_share pagetable.self_share acm.self_share sim.Server.Acquire.cum_share " +
		"stu.TranslateAndVerify.cum_share pagetable.WalkAppend.cum_share sim.alloc_share pagetable.alloc_share acm.alloc_share",
		"sim_kips, host_ns_per_event, alloc_mb and max_rss_mb on ifam-sssp-2node; little on deactn-sp"},
	{"translator.self_share cache.self_share cpu.self_share workload.self_share translator.Lookup.cum_share " +
		"cache.Hierarchy.Access.cum_share workload.Source.Next.cum_share stu.VerifyMapped.cum_share",
		"sim_kips and host_ns_per_event on deactn-sp; the translator is absent on ifam-sssp-2node"},
	{"node.Access.cum_share tlb.MMU.Lookup.cum_share fabric.Traverse.cum_share memdev.Access.cum_share",
		"sim_kips on both single-run workloads (the access chain every reference takes)"},
	{"core.new_system_ms core.new_system_share core.self_share arena.alloc_share broker.alloc_share broker.self_share arena.self_share",
		"setup_s and wall_s on sweep-stu; barely the single-run workloads (construction is ~1 ms of ~1 s)"},
	{"experiments.self_share core.run_ms",
		"wall_s on sweep-stu (Runner scheduling around many short runs)"},
	{"resultstore.lookup_us resultstore.put_us resultstore.self_share",
		"hit_us_p50 and hit_us_p90 on every workload; wall_s on sweep-stu, whose cold pass stores every result"},
	{"hit_us_p50 hit_us_p90", "no end-to-end metric (warm passes are outside wall_s): what a cached query costs a user"},
	{"runtime.self_share", "alloc_mb, max_rss_mb and wall_s everywhere (allocator and collector)"},
	{"sim.events_pki",
		"sim_kips through the model: sim.events_pki x host_ns_per_event = 1e9 / sim_kips, so a model change " +
			"moves the first factor and a simulator speed-up the second"},
	{"sim.ipc tlb.walks_pki cache.l3_mpki cache.writebacks_pki translator.hit_rate translator.slot_stall_ns " +
		"stu.xlate_hit_rate stu.acm_hit_rate stu.walks_pki stu.ptw_steps_pki fabric.packets_pki " +
		"memdev.fam_reads_pki memdev.fam_writes_pki node.at_fraction",
		"simulated counts: identical on every run of a config; a change that only speeds up the simulator must leave them unchanged"},
	{"trace.wall_ratio", "none: the profilers' own overhead on the traced run"},
}
