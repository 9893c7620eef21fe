package main

import "testing"

func TestParseFileAggregatesCounts(t *testing.T) {
	p := write(t, t.TempDir(), "bench.txt", `
goos: linux
goarch: amd64
pkg: deact/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCoreRun/I-FAM-8         	     115	   9785698 ns/op	 5931576 B/op	     714 allocs/op
BenchmarkCoreRun/I-FAM-8         	     123	   9624573 ns/op	 5931570 B/op	     712 allocs/op
BenchmarkCoreRun/I-FAM-8         	      96	  10427616 ns/op	 5931572 B/op	     714 allocs/op
BenchmarkEngine/handler-8        	121170255	        10.03 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	deact/internal/core	9.553s
`)
	got, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got["BenchmarkCoreRun/I-FAM"]
	if !ok {
		t.Fatalf("missing aggregated benchmark; have %v", got)
	}
	if len(s.TimeNS) != 3 || len(s.AllocsPerOp) != 3 || len(s.BytesPerOp) != 3 {
		t.Fatalf("samples not aggregated: %+v", s)
	}
	if m := median(s.TimeNS); m != 9785698 {
		t.Fatalf("median time = %v, want 9785698", m)
	}
	if m := medianInt(s.AllocsPerOp); m != 714 {
		t.Fatalf("median allocs = %d, want 714", m)
	}
	if e, ok := got["BenchmarkEngine/handler"]; !ok || e.TimeNS[0] != 10.03 {
		t.Fatalf("engine benchmark not parsed: %+v", got)
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	deact/internal/core	9.553s",
		"goos: linux",
		"BenchmarkBroken notanumber 5 ns/op",
		"Benchmark 5",
	} {
		if name, _, ok := parseLine(line); ok {
			t.Fatalf("line %q parsed as benchmark %q", line, name)
		}
	}
}

func TestParseLineKeepsUnsuffixedNames(t *testing.T) {
	name, s, ok := parseLine("BenchmarkThing 10 250 ns/op")
	if !ok || name != "BenchmarkThing" || s.TimeNS[0] != 250 {
		t.Fatalf("got %q %+v ok=%v", name, s, ok)
	}
	// A trailing -N that is part of the sub-benchmark name, not a procs
	// suffix, still strips only numeric tails.
	name, _, ok = parseLine("BenchmarkThing/sub-case-4 10 250 ns/op")
	if !ok || name != "BenchmarkThing/sub-case" {
		t.Fatalf("procs suffix not stripped: %q", name)
	}
}

func TestMedianEvenLength(t *testing.T) {
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := medianInt([]int64{1, 2, 3, 10}); m != 2 {
		t.Fatalf("int median = %d, want 2 (midpoint rounds down)", m)
	}
}

func TestParseFileEmptyErrors(t *testing.T) {
	p := write(t, t.TempDir(), "bench.txt", "PASS\n")
	if _, err := parseFile(p); err == nil {
		t.Fatal("empty bench file accepted")
	}
}
