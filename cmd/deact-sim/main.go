// Command deact-sim runs one benchmark under one FAM virtual-memory scheme
// and prints the measured metrics.
//
// Usage:
//
//	deact-sim -scheme deact-n -bench canl -nodes 1 -cores 4
//	deact-sim -scheme i-fam -bench mcf -fabric-ns 1000 -v
//
// Flag units: -warmup and -measure are instruction counts per core (not
// cycles); -fabric-ns is one-way propagation latency in nanoseconds (not
// cycles); -stu is a capacity in entries (not bytes). Everything not
// exposed as a flag — cache geometry, device timings, ACM width — comes
// from core.DefaultConfig, the paper's Table II system scaled ~16× down.
//
// Record/replay: -trace-out PATH records the exact per-core access stream
// consumed by the run into a delta-encoded trace file; -trace-in PATH
// replays such a file as the workload (the benchmark name comes from the
// trace; -nodes and -cores must match the recording). A replayed run
// prints byte-identical output to the run that recorded it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"deact/internal/cli"
	"deact/internal/core"
	"deact/internal/sim"
	"deact/internal/trace"
	"deact/internal/workload"
)

func main() {
	var (
		schemeFlag = flag.String("scheme", "deact-n", "virtual-memory scheme: e-fam, i-fam, deact-w, deact-n")
		bench      = flag.String("bench", "mcf", "benchmark name ("+strings.Join(workload.Names(), ", ")+")")
		nodes      = flag.Int("nodes", 1, "compute nodes sharing the fabric")
		stuSize    = flag.Int("stu", 1024, "STU cache size in entries, not bytes; entries/8 ways must be a power of two (Figure 13 sweeps 256-8192)")
		fabricNS   = flag.Uint64("fabric-ns", 500, "fabric one-way propagation latency in nanoseconds, not cycles (Figure 15 sweeps 100-6000)")
		verbose    = flag.Bool("v", false, "print per-node counters")
		traceOut   = flag.String("trace-out", "", "record the run's access streams to this trace file")
		traceIn    = flag.String("trace-in", "", "replay the workload from this trace file instead of synthesizing (-bench is taken from the trace)")
	)
	scale := cli.ScaleFlags(flag.CommandLine, 80_000, 60_000, 4)
	flag.Parse()

	scheme, err := core.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deact-sim:", err)
		os.Exit(2)
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = *bench
	cfg.Nodes = *nodes
	cfg.CoresPerNode = scale.Cores
	cfg.WarmupInstructions = scale.Warmup
	cfg.MeasureInstructions = scale.Measure
	cfg.Seed = scale.Seed
	cfg.STUEntries = *stuSize
	cfg.FabricLatency = sim.NS(*fabricNS)

	var opts []core.RunOption
	var rec *trace.Recorder
	switch {
	case *traceIn != "" && *traceOut != "":
		fmt.Fprintln(os.Stderr, "deact-sim: -trace-in and -trace-out are mutually exclusive")
		os.Exit(2)
	case *traceIn != "":
		t, err := trace.Load(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deact-sim:", err)
			os.Exit(1)
		}
		// The trace dictates the workload identity; scheme and machine
		// shape stay free so one recording drives many what-if replays.
		cfg.Benchmark = t.Benchmark()
		cfg.TraceID = t.ID()
		opts = append(opts, core.WithTrace(t))
	case *traceOut != "":
		rec = trace.NewRecorder(cfg.Benchmark, cfg.Nodes*cfg.CoresPerNode)
		opts = append(opts, core.WithTraceRecorder(rec))
	}

	// SIGINT/SIGTERM cancel cooperatively: the event loop checks the
	// context at a coarse simulated-time stride and the run exits nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := core.Run(ctx, cfg, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deact-sim:", err)
		stop()
		os.Exit(1)
	}
	if rec != nil {
		if err := rec.Save(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "deact-sim:", err)
			stop()
			os.Exit(1)
		}
		// Stderr, so recorded and replayed runs stay stdout-identical.
		fmt.Fprintf(os.Stderr, "deact-sim: wrote trace %s (%d streams)\n", *traceOut, rec.Streams())
	}
	fmt.Println(r)
	fmt.Printf("  duration           %.3f ms simulated\n", float64(r.Duration)/float64(sim.Millisecond))
	fmt.Printf("  instructions       %d (%d memory ops)\n", r.Instructions, r.MemOps)
	fmt.Printf("  FAM requests       %d AT + %d data (AT share %.1f%%)\n", r.FAMAT, r.FAMData, r.ATFraction*100)
	fmt.Printf("  FAM device         %d reads, %d writes\n", r.FAMReads, r.FAMWrites)
	fmt.Printf("  fabric packets     %d\n", r.FabricPackets)
	fmt.Printf("  translation hit    %.2f%%\n", r.TranslationHitRate*100)
	fmt.Printf("  ACM hit            %.2f%%\n", r.ACMHitRate*100)
	if *verbose {
		for i, ns := range r.NodeStats {
			fmt.Printf("  node %d: walks=%d faults=%d dram=%d wb=%d denied=%d\n",
				i+1, ns.NodePTWalks, ns.OSFaults, ns.DRAMData, ns.Writebacks, ns.Denied)
			st := r.STUStats[i]
			fmt.Printf("    stu: xlate %d/%d acm %d/%d ptw-steps=%d bitmap=%d\n",
				st.TranslationHits, st.TranslationHits+st.TranslationMisses,
				st.ACMHits, st.ACMHits+st.ACMMisses, st.PTWSteps, st.BitmapFetches)
			tr := r.TranslatorStats[i]
			fmt.Printf("    translator: hit %d/%d dram r/w %d/%d\n",
				tr.Hits, tr.Hits+tr.Misses, tr.DRAMReads, tr.DRAMWrites)
		}
	}
}
