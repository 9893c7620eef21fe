package main

// Parsing of `go test -bench` output into per-benchmark sample sets. It
// understands the standard line format
//
//	BenchmarkName[/sub][-procs]  N  12345 ns/op [ 67 B/op  8 allocs/op ] [...]
//
// and aggregates repeated -count runs of the same benchmark, so the gate
// compares medians instead of single noisy samples.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// samples collects the per-run measurements of one benchmark.
type samples struct {
	TimeNS      []float64 // ns/op per run
	BytesPerOp  []int64   // B/op per run (when -benchmem was used)
	AllocsPerOp []int64   // allocs/op per run
}

// parseFile reads a `go test -bench` output file.
func parseFile(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := map[string]*samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, s, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		agg := out[name]
		if agg == nil {
			agg = &samples{}
			out[name] = agg
		}
		agg.TimeNS = append(agg.TimeNS, s.TimeNS...)
		agg.BytesPerOp = append(agg.BytesPerOp, s.BytesPerOp...)
		agg.AllocsPerOp = append(agg.AllocsPerOp, s.AllocsPerOp...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines in %s", path)
	}
	return out, nil
}

// parseLine parses one benchmark result line. The GOMAXPROCS suffix (-8) is
// stripped so runs from machines with different core counts compare.
func parseLine(line string) (string, samples, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", samples{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
		return "", samples{}, false
	}
	var s samples
	seenTime := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			t, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", samples{}, false
			}
			s.TimeNS = append(s.TimeNS, t)
			seenTime = true
		case "B/op":
			if b, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.BytesPerOp = append(s.BytesPerOp, b)
			}
		case "allocs/op":
			if a, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.AllocsPerOp = append(s.AllocsPerOp, a)
			}
		}
	}
	if !seenTime {
		return "", samples{}, false
	}
	return name, s, true
}

// median returns the median of xs (mean of the middle pair for even
// lengths). xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// medianInt returns the median of xs, rounding the even-length midpoint
// toward the lower sample (conservative for "any increase fails" gates).
func medianInt(xs []int64) int64 {
	tmp := append([]int64(nil), xs...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
