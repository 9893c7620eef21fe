package main

import "deact/internal/core"

// workload is one named input set. Both single-run workloads are one
// closed-loop caller with one simulation in flight; the sweep is a
// closed-loop batch that submits its whole grid and lets the Runner's
// workers drain it.
type workload struct {
	name    string
	why     string
	sweep   bool
	configs func(seed int64) []core.Config
}

var workloads = []*workload{
	{
		name: "ifam-sssp-2node",
		why: "translation-bound I-FAM sssp on 2 nodes x 4 cores: STU walks, page table, ACM and PTW " +
			"cache, and two nodes contending out of order on the fabric and FAM calendars",
		configs: func(seed int64) []core.Config {
			return []core.Config{singleConfig(core.IFAM, "sssp", 2, seed)}
		},
	},
	{
		name: "deactn-sp",
		why: "cache-resident sequential DeACT-N sp with 40% writes on 1 node: the translator serves " +
			"every FAM miss, the STU rarely walks, calendars see in-order arrivals",
		configs: func(seed int64) []core.Config {
			return []core.Config{singleConfig(core.DeACTN, "sp", 1, seed)}
		},
	},
	{
		name: "sweep-stu",
		why: "120 short runs (6 benchmarks x 4 schemes x 5 STU sizes) through the Runner, cold then " +
			"warm store: construction, pools, scheduling and store Put/Lookup dominate",
		sweep:   true,
		configs: sweepConfigs,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// singleConfig is DefaultConfig scale (4 cores per node, 120k warmup and
// 120k measured instructions per core) for one scheme and benchmark.
func singleConfig(scheme core.Scheme, bench string, nodes int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = bench
	cfg.Nodes = nodes
	cfg.Seed = seed
	return cfg
}

// The sweep grid: benchmarks × schemes × STU sizes, one core each, 20k
// warmup and 20k measured instructions.
var (
	sweepBenchmarks = []string{"mcf", "canl", "astar", "lu", "sp", "dc"}
	sweepSTUEntries = []int{256, 512, 1024, 2048, 4096}
)

func sweepConfigs(seed int64) []core.Config {
	var cfgs []core.Config
	for _, b := range sweepBenchmarks {
		for _, s := range core.Schemes() {
			for _, e := range sweepSTUEntries {
				cfg := core.DefaultConfig()
				cfg.Scheme = s
				cfg.Benchmark = b
				cfg.CoresPerNode = 1
				cfg.WarmupInstructions = 20_000
				cfg.MeasureInstructions = 20_000
				cfg.STUEntries = e
				cfg.Seed = seed
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// instructions is the number of instructions cfg simulates, warmup
// included: the work a host second is credited with.
func instructions(cfg core.Config) uint64 {
	return uint64(cfg.Nodes*cfg.CoresPerNode) * (cfg.WarmupInstructions + cfg.MeasureInstructions)
}

// subSeed derives the seed of a single-run workload's i-th run from the
// benchmark seed. A run's host cost depends on its input (how the
// contention calendars fragment, which pages are touched), so each run of
// the timed loop simulates a different input and the medians cover many;
// that keeps them steady from one benchmark seed to the next. Derived
// seeds are spread over the int64 range, so the per-node and per-core
// offsets the simulator adds to a seed never make two runs share a stream.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z >> 1)
}
