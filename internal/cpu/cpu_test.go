package cpu

import (
	"errors"
	"testing"

	"deact/internal/sim"
	"deact/internal/workload"
)

func testGen(t *testing.T, chaseProb float64) *workload.Generator {
	t.Helper()
	p := workload.Profile{
		Name: "synthetic", Suite: "test",
		FootprintPages: 64, MemPer1000: 500, ChaseProb: chaseProb,
	}
	g, err := workload.NewGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cfg(budget uint64) Config {
	return Config{CycleTime: 500, IssueWidth: 2, MaxOutstanding: 32, Instructions: budget}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CycleTime: 0, IssueWidth: 1, MaxOutstanding: 1, Instructions: 1},
		{CycleTime: 1, IssueWidth: 0, MaxOutstanding: 1, Instructions: 1},
		{CycleTime: 1, IssueWidth: 1, MaxOutstanding: 0, Instructions: 1},
		{CycleTime: 1, IssueWidth: 1, MaxOutstanding: 1, Instructions: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(cfg(1), nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestCoreRetiresBudget(t *testing.T) {
	e := sim.NewEngine()
	var fixed AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(10), nil
	}
	c, err := New(cfg(10000), testGen(t, 0), fixed)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	e.Run(0)
	if !c.Done() || c.Err() != nil {
		t.Fatalf("core not done: err=%v", c.Err())
	}
	if c.Instructions() < 10000 {
		t.Fatalf("retired %d instructions, want ≥ budget", c.Instructions())
	}
	if c.IPC() <= 0 || c.IPC() > 2 {
		t.Fatalf("IPC %v outside (0,2]", c.IPC())
	}
	if c.MemOps() == 0 || c.FinishedAt() == 0 {
		t.Fatal("counters missing")
	}
}

func TestBlockingSerializesLatency(t *testing.T) {
	// Same latency per access; all-blocking stream must finish much later
	// than all-independent stream.
	run := func(chase float64) sim.Time {
		e := sim.NewEngine()
		var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(500), nil
		}
		c, _ := New(cfg(20000), testGen(t, chase), acc)
		c.Start(e)
		e.Run(0)
		return c.FinishedAt()
	}
	blocking := run(1.0)
	overlapped := run(0.0)
	if blocking < 5*overlapped {
		t.Fatalf("blocking=%v overlapped=%v — dependence not serializing", blocking, overlapped)
	}
}

func TestWindowLimitStalls(t *testing.T) {
	// With a 1-entry window, even independent accesses serialize.
	run := func(window int) sim.Time {
		e := sim.NewEngine()
		var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(1000), nil
		}
		c := cfg(5000)
		c.MaxOutstanding = window
		core, _ := New(c, testGen(t, 0), acc)
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	narrow := run(1)
	wide := run(32)
	if narrow < 3*wide {
		t.Fatalf("narrow=%v wide=%v — window limit not enforced", narrow, wide)
	}
}

func TestAccessErrorAbortsRun(t *testing.T) {
	e := sim.NewEngine()
	calls := 0
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		calls++
		if calls == 3 {
			return 0, errors.New("access denied by STU")
		}
		return now + 1, nil
	}
	c, _ := New(cfg(1_000_000), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if c.Err() == nil {
		t.Fatal("error swallowed")
	}
	if !c.Done() {
		t.Fatal("core kept running after error")
	}
	if calls != 3 {
		t.Fatalf("calls after error = %d", calls)
	}
}

func TestBlockedOpsCounted(t *testing.T) {
	e := sim.NewEngine()
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) { return now, nil }
	c, _ := New(cfg(5000), testGen(t, 0.5), acc)
	c.Start(e)
	e.Run(0)
	if c.BlockedOps() == 0 || c.BlockedOps() >= c.MemOps() {
		t.Fatalf("blocked=%d of %d", c.BlockedOps(), c.MemOps())
	}
}

func TestSetBudgetResumesAfterRetirement(t *testing.T) {
	e := sim.NewEngine()
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(5), nil
	}
	c, _ := New(cfg(1000), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if !c.Done() {
		t.Fatal("first phase did not retire")
	}
	first := c.FinishedAt()
	c.SetBudget(2000)
	if c.Done() {
		t.Fatal("SetBudget did not clear done")
	}
	c.Start(e)
	e.Run(0)
	if !c.Done() || c.Instructions() < 2000 {
		t.Fatalf("second phase incomplete: %d instructions", c.Instructions())
	}
	if c.FinishedAt() <= first {
		t.Fatal("time did not advance in second phase")
	}
}

// TestWindowFillDrainRetireEdges drives the sorted outstanding ring through
// its edge cases directly: fill to capacity, stall on the earliest slot,
// drain completed prefixes, and retire at the latest in-flight completion.
func TestWindowFillDrainRetireEdges(t *testing.T) {
	w := newWindow(4)
	// Out-of-order completions must come back min-first.
	for _, v := range []sim.Time{40, 10, 30, 20} {
		w.insert(v)
	}
	if w.n != 4 || w.min() != 10 {
		t.Fatalf("after fill: n=%d min=%d, want 4/10", w.n, w.min())
	}
	// Drain removes exactly the completed prefix.
	w.drain(20)
	if w.n != 2 || w.min() != 30 {
		t.Fatalf("after drain(20): n=%d min=%d, want 2/30", w.n, w.min())
	}
	// Refill past the wrap point of the ring.
	w.insert(5) // lands below the current min: must become the new head
	if w.min() != 5 {
		t.Fatalf("min after low insert = %d, want 5", w.min())
	}
	w.insert(35)
	if w.n != 4 {
		t.Fatalf("n = %d, want 4 (full)", w.n)
	}
	// Duplicate timestamps drain together.
	w.drain(35)
	if w.n != 1 || w.min() != 40 {
		t.Fatalf("after drain(35): n=%d min=%d, want 1/40", w.n, w.min())
	}
	w.reset()
	if w.n != 0 {
		t.Fatal("reset kept entries")
	}
}

// TestRetireWaitsForOutstanding: a core must not report a finish time
// earlier than its last in-flight independent reference.
func TestRetireWaitsForOutstanding(t *testing.T) {
	e := sim.NewEngine()
	const lat = sim.Time(1_000_000) // 1µs per access, far beyond the step gaps
	var lastDone sim.Time
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		lastDone = now + lat
		return lastDone, nil
	}
	c, _ := New(cfg(100), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if !c.Done() {
		t.Fatal("core did not retire")
	}
	if c.FinishedAt() < lastDone {
		t.Fatalf("FinishedAt %d before last outstanding completion %d", c.FinishedAt(), lastDone)
	}
}

// TestCoreDeterministicAcrossRuns: two cores with identical config and seed
// produce identical counters and finish times.
func TestCoreDeterministicAcrossRuns(t *testing.T) {
	run := func() *Core {
		e := sim.NewEngine()
		var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.Time(op.Addr%977), nil
		}
		c, _ := New(cfg(20000), testGen(t, 0.3), acc)
		c.Start(e)
		e.Run(0)
		return c
	}
	a, b := run(), run()
	if a.Instructions() != b.Instructions() || a.MemOps() != b.MemOps() ||
		a.BlockedOps() != b.BlockedOps() || a.FinishedAt() != b.FinishedAt() {
		t.Fatalf("divergent runs: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Instructions(), a.MemOps(), a.BlockedOps(), a.FinishedAt(),
			b.Instructions(), b.MemOps(), b.BlockedOps(), b.FinishedAt())
	}
}

func TestSetBudgetKeepsAbortError(t *testing.T) {
	e := sim.NewEngine()
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return 0, errors.New("denied")
	}
	c, _ := New(cfg(100), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if c.Err() == nil {
		t.Fatal("error lost")
	}
	c.SetBudget(200)
	if !c.Done() {
		t.Fatal("SetBudget resurrected a faulted core")
	}
}
