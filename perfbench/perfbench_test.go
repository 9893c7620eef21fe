package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"deact/internal/core"
)

// smallConfig is a sweep-sized run that finishes in milliseconds.
func smallConfig(scheme core.Scheme, bench string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme, cfg.Benchmark, cfg.CoresPerNode = scheme, bench, 1
	cfg.WarmupInstructions, cfg.MeasureInstructions = 2_000, 2_000
	return cfg
}

func mustRun(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConservationHoldsOnEveryScheme(t *testing.T) {
	for _, s := range core.Schemes() {
		if err := conservation(mustRun(t, smallConfig(s, "mcf"))); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

// TestCheckerCountsCorruptedResults: every kind of wrong outcome counts as
// a failure, and a faithful repetition does not.
func TestCheckerCountsCorruptedResults(t *testing.T) {
	cfg := smallConfig(core.IFAM, "canl")
	good := mustRun(t, cfg)
	chk := newChecker()
	chk.observe(cfg, good, nil)
	chk.observe(cfg, mustRun(t, cfg), nil) // a real repetition
	if chk.attempted != 2 || chk.failed != 0 {
		t.Fatalf("clean runs: attempted %d failed %d (%v)", chk.attempted, chk.failed, chk.notes)
	}

	lostRead := good
	lostRead.FAMReads++ // breaks FAM accesses == FAMAT+FAMData
	lostPacket := good
	lostPacket.FabricPackets-- // breaks packets == 2 x FAM accesses
	drifted := good
	drifted.IPC *= 1.01 // conserves everything but differs from the first result
	for _, bad := range []core.Result{lostRead, lostPacket, drifted} {
		chk.observe(cfg, bad, nil)
	}
	chk.observe(cfg, core.Result{}, context.Canceled) // an error in place of a result
	if chk.attempted != 6 || chk.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4 (%v)", chk.attempted, chk.failed, chk.notes)
	}
}

func TestCheckOrdering(t *testing.T) {
	var cfgs []core.Config
	var res []core.Result
	for _, b := range sweepBenchmarks {
		for _, s := range []core.Scheme{core.IFAM, core.DeACTN} {
			for _, e := range sweepSTUEntries {
				cfg := smallConfig(s, b)
				cfg.STUEntries = e
				ipc := 1.0
				if s == core.DeACTN {
					ipc = 1.5 - float64(e)/10_000 // the gain shrinks as the STU grows
				}
				cfgs = append(cfgs, cfg)
				res = append(res, core.Result{IPC: ipc})
			}
		}
	}
	chk := newChecker()
	chk.checkOrdering(cfgs, res)
	if chk.failed != 0 {
		t.Fatalf("paper-shaped sweep failed: %v", chk.notes)
	}
	perBench := chk.attempted / len(atSensitive)
	for i, cfg := range cfgs {
		if cfg.Benchmark == "dc" && cfg.Scheme == core.DeACTN && cfg.STUEntries == 512 {
			res[i].IPC = 0.99 // I-FAM wins one point
		}
	}
	chk = newChecker()
	chk.checkOrdering(cfgs, res)
	if chk.failed != 1 || chk.attempted != perBench*len(atSensitive) {
		t.Fatalf("attempted %d failed %d, want %d and 1", chk.attempted, chk.failed, perBench*len(atSensitive))
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"deact/internal/sim.(*Server).Acquire":                          "sim",
		"deact/internal/sim.(*Server).Acquire.func1":                    "sim",
		"deact/internal/arena.Slice[go.shape.struct { deact/x.y int }]": "arena",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"math/rand.(*Rand).Float64":               "math/rand",
		"main.main":                               "main",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestEntryMatches(t *testing.T) {
	acquire := entry{"sim.Server.Acquire", "deact/internal/sim", "Server", "Acquire"}
	next := entry{"workload.Source.Next", "deact/internal/workload", "*", "Next"}
	for _, c := range []struct {
		e    entry
		sym  string
		want bool
	}{
		{acquire, "deact/internal/sim.(*Server).Acquire", true},
		{acquire, "deact/internal/sim.(*Server).Acquire.func1", false},
		{acquire, "deact/internal/sim.(*Resource).Acquire", false},
		{acquire, "deact/internal/simx.(*Server).Acquire", false},
		{next, "deact/internal/workload.(*Generator).Next", true},
		{next, "deact/internal/workload.(*stencil).Next", true},
		{next, "deact/internal/workload.(*Generator).Next.func1", false},
		{next, "deact/internal/trace.(*Replay).Next", false},
	} {
		if got := c.e.matches(c.sym); got != c.want {
			t.Errorf("%s matches %q = %v, want %v", c.e.name, c.sym, got, c.want)
		}
	}
}

// TestAggregation pins the three aggregations on a hand-built profile:
// self time goes to the innermost frame's layer, cumulative time counts a
// sample once per entry however deep it recurses, and allocation skips
// runtime frames to the code that asked for the memory.
func TestAggregation(t *testing.T) {
	p := &profile{types: []string{"samples", "cpu"}, samples: []profSample{
		{values: []int64{1, 10}, stack: []string{"deact/internal/sim.(*Server).Acquire", "deact/internal/node.(*Node).Access"}},
		{values: []int64{1, 20}, stack: []string{"runtime.mallocgc", "deact/internal/sim.(*Server).bookInGap",
			"deact/internal/sim.(*Server).Acquire", "deact/internal/sim.(*Server).Acquire"}},
		{values: []int64{1, 70}, stack: []string{"deact/internal/cache.(*Hierarchy).Access", "deact/internal/node.(*Node).Access"}},
	}}
	self, total := selfByLayer(p, 1)
	if total != 100 || self["sim"] != 10 || self["runtime"] != 20 || self["cache"] != 70 {
		t.Errorf("self = %v / %d", self, total)
	}
	cum, _ := cumByEntry(p, 1, entries)
	if cum["sim.Server.Acquire"] != 30 || cum["node.Access"] != 80 || cum["cache.Hierarchy.Access"] != 70 {
		t.Errorf("cum = %v", cum)
	}
	alloc, _ := allocByLayer(p, 1)
	if alloc["sim"] != 30 || alloc["runtime"] != 0 || alloc["cache"] != 70 {
		t.Errorf("alloc = %v", alloc)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

var sink [][]byte

//go:noinline
func allocate(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 4096))
	}
}

func symbolOf(t *testing.T, fn any) string {
	t.Helper()
	return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
}

// TestParseRealProfiles decodes profiles runtime/pprof wrote in this
// process and finds the functions that did the work.
func TestParseRealProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	cp, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cp.valueIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	name := symbolOf(t, spin)
	e := entry{name: "spin", pkg: funcPackage(name), fn: strings.TrimPrefix(name, funcPackage(name)+".")}
	cum, total := cumByEntry(cp, idx, []entry{e})
	if total == 0 || share(cum["spin"], total) < 0.5 {
		t.Fatalf("spin has %d of %d CPU ns, want most", cum["spin"], total)
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	h0, err := heapProfile()
	if err != nil {
		t.Fatal(err)
	}
	allocate(1000)
	h1, err := heapProfile()
	if err != nil {
		t.Fatal(err)
	}
	sink = nil
	p0, err := parseProfile(h0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := parseProfile(h1)
	if err != nil {
		t.Fatal(err)
	}
	hidx, err := p1.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	a0, t0 := allocByLayer(p0, hidx)
	a1, t1 := allocByLayer(p1, hidx)
	layer := layerOf(symbolOf(t, allocate))
	if got := a1[layer] - a0[layer]; got < 1000*4096 || share(got, t1-t0) < 0.5 {
		t.Fatalf("%s allocated %d of %d bytes, want at least %d and most", layer, got, t1-t0, 1000*4096)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := parseProfile(buf.Bytes())
	if err != nil || len(raw.samples) == 0 {
		t.Fatalf("full profile: %v (%d samples)", err, len(raw.samples))
	}
	// Ungzipped bytes cut mid-message must fail cleanly, never panic.
	var plain bytes.Buffer
	if _, err := plain.ReadFrom(gunzip(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	b := plain.Bytes()
	for _, cut := range []int{1, len(b) / 3, len(b) - 1} {
		if _, err := parseProfile(b[:cut]); err == nil {
			t.Errorf("profile cut at %d of %d bytes decoded without error", cut, len(b))
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON runs the traced mode briefly and the
// end-to-end assembly on its bench, and holds the names and units the
// program prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few default-scale runs")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("deactn-sp")
	o := options{workload: w.name, seed: 1, seconds: 0.01, trace: true, out: t.TempDir()}
	rep, err := tracedRun(w, o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.chk.failed != 0 {
		t.Fatalf("traced run failed checks: %v", rep.chk.notes)
	}
	compare(t, "per_layer", rep.metrics, doc.PerLayer)

	b := newBench(w, 1, t.TempDir(), newChecker())
	b.singleUnit(context.Background(), b.cfgs[0])
	e2e := &report{chk: b.chk}
	endToEnd(e2e, b, []float64{1})
	compare(t, "end_to_end", e2e.metrics, doc.EndToEnd)
}

func compare(t *testing.T, section string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for _, m := range got {
		g = append(g, m.name+" "+m.unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: program prints\n%v\nBENCHMARK.json declares\n%v", section, g, w)
	}
}

func gunzip(t *testing.T, b []byte) io.Reader {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return zr
}
