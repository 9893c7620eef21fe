package cpu

import (
	"testing"

	"deact/internal/sim"
	"deact/internal/workload"
)

func ooocfg(budget uint64, window, schedLat int) Config {
	c := cfg(budget)
	c.OoO, c.WindowSize, c.SchedulerLatency = true, window, schedLat
	return c
}

func TestOoOConfigValidate(t *testing.T) {
	if err := ooocfg(100, 1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ooocfg(100, 32, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	noWindow := cfg(100)
	noWindow.OoO = true
	negLat := ooocfg(100, 4, -1)
	strayWindow := cfg(100)
	strayWindow.WindowSize = 4
	strayLat := cfg(100)
	strayLat.SchedulerLatency = 2
	for i, c := range []Config{noWindow, negLat, strayWindow, strayLat} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad OoO config %d accepted", i)
		}
	}
}

// TestOoOWindowOneMatchesInOrder is the cpu-level degeneracy oracle: a
// one-entry window with a zero-latency scheduler cannot run ahead of any
// dependent load, so stepOoO — a fully separate implementation — must
// reproduce the in-order schedule bit-for-bit, across dependence mixes.
func TestOoOWindowOneMatchesInOrder(t *testing.T) {
	for _, chase := range []float64{0, 0.3, 1.0} {
		run := func(c Config) *Core {
			e := sim.NewEngine()
			var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
				return now + sim.NS(40) + sim.Time(op.Addr%977), nil
			}
			core, err := New(c, testGen(t, chase), acc)
			if err != nil {
				t.Fatal(err)
			}
			core.Start(e)
			e.Run(0)
			return core
		}
		inorder := run(cfg(20000))
		ooo := run(ooocfg(20000, 1, 0))
		if inorder.Instructions() != ooo.Instructions() ||
			inorder.MemOps() != ooo.MemOps() ||
			inorder.BlockedOps() != ooo.BlockedOps() ||
			inorder.FinishedAt() != ooo.FinishedAt() {
			t.Fatalf("chase=%v: in-order %d/%d/%d/%d vs OoO(W=1) %d/%d/%d/%d",
				chase,
				inorder.Instructions(), inorder.MemOps(), inorder.BlockedOps(), inorder.FinishedAt(),
				ooo.Instructions(), ooo.MemOps(), ooo.BlockedOps(), ooo.FinishedAt())
		}
	}
}

// scriptSource replays a fixed op sequence — a deterministic probe for the
// scheduler's run-ahead accounting.
type scriptSource struct {
	ops []workload.Op
	i   int
}

func (s *scriptSource) Next() workload.Op {
	op := s.ops[s.i%len(s.ops)]
	s.i++
	return op
}
func (s *scriptSource) SetTenant(uint8) {}

// tapSource records every op its wrapped source produces.
type tapSource struct {
	workload.Source
	ops []workload.Op
}

func (s *tapSource) Next() workload.Op {
	op := s.Source.Next()
	s.ops = append(s.ops, op)
	return op
}

// TestOoORunAheadBoundedByWindow pins the window semantics exactly: after an
// incomplete dependent load, the core issues precisely WindowSize-1 further
// ops, then stalls until the load completes.
func TestOoORunAheadBoundedByWindow(t *testing.T) {
	const window = 4
	const chainLat = sim.Time(1_000_000) // 1µs, far beyond the step gaps
	ops := make([]workload.Op, 10)
	ops[0].Blocking = true
	var chainDone sim.Time
	earlyIssues := 0
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		if op.Blocking {
			chainDone = now + chainLat
			return chainDone, nil
		}
		if now < chainDone {
			earlyIssues++
		}
		return now + 1, nil
	}
	c := ooocfg(uint64(len(ops)), window, 0)
	core, err := New(c, &scriptSource{ops: ops}, acc)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	core.Start(e)
	e.Run(0)
	if !core.Done() || core.Err() != nil {
		t.Fatalf("core not done: err=%v", core.Err())
	}
	if earlyIssues != window-1 {
		t.Fatalf("issued %d ops past the incomplete chain load, want exactly %d", earlyIssues, window-1)
	}
}

// TestOoOWiderWindowRunsFaster: on a mixed dependent/independent stream the
// run-ahead window hides independent work under chain latency, so a wider
// window must finish strictly earlier. Deterministic (same seed, same
// latencies), so strict inequality is stable.
func TestOoOWiderWindowRunsFaster(t *testing.T) {
	run := func(window int) sim.Time {
		e := sim.NewEngine()
		var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(200) + sim.Time(op.Addr%503), nil
		}
		core, err := New(ooocfg(20000, window, 0), testGen(t, 0.5), acc)
		if err != nil {
			t.Fatal(err)
		}
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	narrow, wide := run(1), run(8)
	if wide >= narrow {
		t.Fatalf("window=8 finished at %v, window=1 at %v — run-ahead bought nothing", wide, narrow)
	}
}

// TestOoOSchedulerLatencySerializes: on a pure pointer chase every op waits
// on the chain register, so a nonzero wakeup latency must push the finish
// time strictly later.
func TestOoOSchedulerLatencySerializes(t *testing.T) {
	run := func(schedLat int) sim.Time {
		e := sim.NewEngine()
		var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(100), nil
		}
		core, err := New(ooocfg(10000, 1, schedLat), testGen(t, 1.0), acc)
		if err != nil {
			t.Fatal(err)
		}
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	fast, slow := run(0), run(8)
	if slow <= fast {
		t.Fatalf("schedLat=8 finished at %v, schedLat=0 at %v — wakeup stage free", slow, fast)
	}
}

// TestOoORetireDrainsScheduler: retirement drains the OoO scheduler, so a
// core resumed with SetBudget + Start (the warmup → measure transition)
// runs its second phase exactly like a fresh core fed the same ops: the
// same counts and, under an access latency that depends only on issue
// time, the same duration. On a pure chase with a slow wakeup stage, a
// chain register carried across retirement would delay the first resumed
// load.
func TestOoORetireDrainsScheduler(t *testing.T) {
	var acc AccessFunc = func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(50), nil
	}
	src := &tapSource{Source: testGen(t, 1.0)}
	resumed, err := New(ooocfg(1000, 8, 8), src, acc)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	resumed.Start(e)
	e.Run(0)
	if !resumed.Done() {
		t.Fatal("core did not retire")
	}
	first := resumed.FinishedAt()
	instrs, memOps, blocked := resumed.Instructions(), resumed.MemOps(), resumed.BlockedOps()
	warmOps := len(src.ops)
	resumed.SetBudget(2000)
	resumed.Start(e)
	e.Run(0)
	if !resumed.Done() || resumed.Instructions() < 2000 {
		t.Fatalf("resume incomplete: %d instructions", resumed.Instructions())
	}

	fresh, err := New(ooocfg(2000-instrs, 8, 8), &scriptSource{ops: src.ops[warmOps:]}, acc)
	if err != nil {
		t.Fatal(err)
	}
	fe := sim.NewEngine()
	fresh.Start(fe)
	fe.Run(0)
	if fresh.Instructions() != resumed.Instructions()-instrs ||
		fresh.MemOps() != resumed.MemOps()-memOps ||
		fresh.BlockedOps() != resumed.BlockedOps()-blocked ||
		fresh.FinishedAt() != resumed.FinishedAt()-first {
		t.Fatalf("resumed phase %d/%d/%d in %v, fresh core %d/%d/%d in %v",
			resumed.Instructions()-instrs, resumed.MemOps()-memOps, resumed.BlockedOps()-blocked, resumed.FinishedAt()-first,
			fresh.Instructions(), fresh.MemOps(), fresh.BlockedOps(), fresh.FinishedAt())
	}
}
