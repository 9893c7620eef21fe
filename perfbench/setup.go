package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"deact/internal/core"
	"deact/internal/experiments"
	"deact/internal/resultstore"
)

// setupProbes is how many fresh processes time the set-up; the median is
// reported.
const setupProbes = 9

// measureSetup times set-up in setupProbes fresh processes of this
// program, because the catalog and skew tables are built once per process.
func measureSetup(w *workload, o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name,
			"--seed", strconv.FormatInt(o.seed, 10), "--out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", out, err)
		}
		xs = append(xs, v)
	}
	return xs, nil
}

// setupProbe is the whole of a probe process: everything before the first
// simulated event, from package initialization through the catalog and
// skew-table build to the first system's construction (and, for the
// sweep, opening its store and building its Runner).
func setupProbe(w *workload, seed int64, tmp string) (time.Duration, error) {
	cfgs := w.configs(seed)
	if w.sweep {
		st, err := resultstore.Open(filepath.Join(tmp, "probe-store"), 0)
		if err != nil {
			return 0, err
		}
		experiments.New(experiments.Options{Parallelism: runtime.GOMAXPROCS(0), Store: st})
	}
	if _, err := core.NewSystem(cfgs[0]); err != nil {
		return 0, err
	}
	return time.Since(processStart), nil
}
