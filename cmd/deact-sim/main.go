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
// A configuration file replaces the per-field flags: -config PATH decodes
// PATH the way deact-serve decodes a POST /run body — strict JSON (unknown
// fields are errors) overlaid on core.DefaultConfig — so any request body
// or result-store entry's Config replays from the shell, including the
// knobs no flag exposes (OoO core, patterns, tenants, prefetch):
//
//	deact-sim -config run.json -v
//
// -config cannot be combined with -scheme, -bench, -nodes, -stu,
// -fabric-ns, -warmup, -measure, -cores or -seed; -v and the trace flags
// still apply.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"deact/internal/cli"
	"deact/internal/core"
	"deact/internal/sim"
	"deact/internal/trace"
	"deact/internal/workload"
)

func main() {
	// SIGINT/SIGTERM cancel cooperatively: the event loop checks the
	// context at a coarse simulated-time stride and the run exits nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// fieldFlags are the flags that set one Config field each; -config
// supplies every field, so it excludes them.
var fieldFlags = []string{"scheme", "bench", "nodes", "stu", "fabric-ns", "warmup", "measure", "cores", "seed"}

// run is the whole command, writing the report to stdout and diagnostics
// to stderr; it returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deact-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeFlag = fs.String("scheme", "deact-n", "virtual-memory scheme: e-fam, i-fam, deact-w, deact-n")
		bench      = fs.String("bench", "mcf", "benchmark name ("+strings.Join(workload.Names(), ", ")+")")
		nodes      = fs.Int("nodes", 1, "compute nodes sharing the fabric")
		stuSize    = fs.Int("stu", 1024, "STU cache size in entries, not bytes; entries/8 ways must be a power of two (Figure 13 sweeps 256-8192)")
		fabricNS   = fs.Uint64("fabric-ns", 500, "fabric one-way propagation latency in nanoseconds, not cycles (Figure 15 sweeps 100-6000)")
		configFile = fs.String("config", "", "read the whole configuration from this JSON file (strict, overlaid on core.DefaultConfig, as deact-serve decodes POST bodies) instead of the per-field flags")
		verbose    = fs.Bool("v", false, "print per-node counters")
		traceOut   = fs.String("trace-out", "", "record the run's access streams to this trace file")
		traceIn    = fs.String("trace-in", "", "replay the workload from this trace file instead of synthesizing (-bench is taken from the trace)")
	)
	scale := cli.ScaleFlags(fs, 80_000, 60_000, 4)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "deact-sim:", err)
		return code
	}

	cfg := core.DefaultConfig()
	if *configFile != "" {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(fieldFlags, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fail(2, fmt.Errorf("-config supplies every field; drop %s", strings.Join(set, ", ")))
		}
		data, err := os.ReadFile(*configFile)
		if err != nil {
			return fail(1, err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return fail(1, fmt.Errorf("%s: %w", *configFile, err))
		}
	} else {
		scheme, err := core.ParseScheme(*schemeFlag)
		if err != nil {
			return fail(2, err)
		}
		cfg.Scheme = scheme
		cfg.Benchmark = *bench
		cfg.Nodes = *nodes
		cfg.CoresPerNode = scale.Cores
		cfg.WarmupInstructions = scale.Warmup
		cfg.MeasureInstructions = scale.Measure
		cfg.Seed = scale.Seed
		cfg.STUEntries = *stuSize
		cfg.FabricLatency = sim.NS(*fabricNS)
	}

	var opts []core.RunOption
	var rec *trace.Recorder
	switch {
	case *traceIn != "" && *traceOut != "":
		return fail(2, fmt.Errorf("-trace-in and -trace-out are mutually exclusive"))
	case *traceIn != "":
		t, err := trace.Load(*traceIn)
		if err != nil {
			return fail(1, err)
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

	r, err := core.Run(ctx, cfg, opts...)
	if err != nil {
		return fail(1, err)
	}
	if rec != nil {
		if err := rec.Save(*traceOut); err != nil {
			return fail(1, err)
		}
		// Stderr, so recorded and replayed runs stay stdout-identical.
		fmt.Fprintf(stderr, "deact-sim: wrote trace %s (%d streams)\n", *traceOut, rec.Streams())
	}
	fmt.Fprintln(stdout, r)
	fmt.Fprintf(stdout, "  duration           %.3f ms simulated\n", float64(r.Duration)/float64(sim.Millisecond))
	fmt.Fprintf(stdout, "  instructions       %d (%d memory ops)\n", r.Instructions, r.MemOps)
	fmt.Fprintf(stdout, "  FAM requests       %d AT + %d data (AT share %.1f%%)\n", r.FAMAT, r.FAMData, r.ATFraction*100)
	fmt.Fprintf(stdout, "  FAM device         %d reads, %d writes\n", r.FAMReads, r.FAMWrites)
	fmt.Fprintf(stdout, "  fabric packets     %d\n", r.FabricPackets)
	fmt.Fprintf(stdout, "  translation hit    %.2f%%\n", r.TranslationHitRate*100)
	fmt.Fprintf(stdout, "  ACM hit            %.2f%%\n", r.ACMHitRate*100)
	if *verbose {
		for i, ns := range r.NodeStats {
			fmt.Fprintf(stdout, "  node %d: walks=%d faults=%d dram=%d wb=%d denied=%d\n",
				i+1, ns.NodePTWalks, ns.OSFaults, ns.DRAMData, ns.Writebacks, ns.Denied)
			st := r.STUStats[i]
			fmt.Fprintf(stdout, "    stu: xlate %d/%d acm %d/%d ptw-steps=%d bitmap=%d\n",
				st.TranslationHits, st.TranslationHits+st.TranslationMisses,
				st.ACMHits, st.ACMHits+st.ACMMisses, st.PTWSteps, st.BitmapFetches)
			tr := r.TranslatorStats[i]
			fmt.Fprintf(stdout, "    translator: hit %d/%d dram r/w %d/%d\n",
				tr.Hits, tr.Hits+tr.Misses, tr.DRAMReads, tr.DRAMWrites)
		}
	}
	return 0
}
