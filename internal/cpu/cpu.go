// Package cpu models the out-of-order cores of Table II (4 cores, 2GHz,
// 2 issues/cycle, 32 maximum outstanding requests) at the fidelity the
// paper's evaluation needs: compute windows retire at the peak issue rate,
// independent memory references overlap up to the outstanding-request
// window, and dependent (pointer-chase) references block — so serialized
// translation latency hurts exactly the way it does in the paper, while
// streaming misses are partially hidden.
//
// Two timing models share the Core type. The default in-order model stalls
// on every dependent load. The OoO model (Config.OoO) adds a small fixed
// scheduling window and register-style chain dependencies: the core issues
// past an incomplete dependent load up to WindowSize-1 ops deep, dependent
// loads serialize through the chain register plus a SchedulerLatency
// wakeup stage, and a one-entry window degenerates bit-exactly to the
// in-order schedule.
//
// A Core is a self-rescheduling sim.Handler: its steady-state event chain
// allocates nothing (the outstanding window is a fixed sorted ring, the
// OoO scheduler three scalar fields), and retirement order is a
// deterministic function of the generator stream and the access latencies
// it observes.
package cpu

import (
	"fmt"

	"deact/internal/arena"
	"deact/internal/sim"
	"deact/internal/workload"
)

// AccessFunc performs one memory reference through the node's full memory
// system and returns its completion time. Implemented by the node package.
type AccessFunc func(now sim.Time, coreID int, op workload.Op) (sim.Time, error)

// Config describes one core.
type Config struct {
	// ID is the core's index within its node.
	ID int
	// CycleTime is the core clock period (500ps at 2GHz).
	CycleTime sim.Time
	// IssueWidth is instructions per cycle at peak (2).
	IssueWidth int
	// MaxOutstanding bounds overlapped memory references (32).
	MaxOutstanding int
	// Instructions is the retirement budget for the run.
	Instructions uint64

	// OoO selects the out-of-order scheduling model: a WindowSize-entry
	// scheduling window lets the core issue past an incomplete dependent
	// (chain) load, while dependent loads themselves serialize through a
	// register-style chain dependency plus the SchedulerLatency wakeup
	// stage. Independent references keep the MaxOutstanding miss window of
	// the in-order model. With WindowSize=1 and SchedulerLatency=0 the OoO
	// schedule is bit-identical to the in-order one (the degeneracy oracle
	// tests hold exactly that).
	OoO bool
	// WindowSize is the OoO scheduling window in ops: the core may issue
	// at most WindowSize-1 ops beyond an incomplete dependent load before
	// stalling until it completes. Must be >= 1 when OoO, 0 otherwise.
	WindowSize int
	// SchedulerLatency is the OoO wakeup/select delay in core cycles
	// between a chain load completing and its dependent issuing. Must be
	// >= 0 when OoO, 0 otherwise.
	SchedulerLatency int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CycleTime == 0:
		return fmt.Errorf("cpu: zero cycle time")
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu: issue width must be positive")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: outstanding window must be positive")
	case c.Instructions == 0:
		return fmt.Errorf("cpu: zero instruction budget")
	case c.OoO && c.WindowSize <= 0:
		return fmt.Errorf("cpu: OoO scheduling window must be positive")
	case c.OoO && c.SchedulerLatency < 0:
		return fmt.Errorf("cpu: scheduler latency must be non-negative")
	case !c.OoO && (c.WindowSize != 0 || c.SchedulerLatency != 0):
		return fmt.Errorf("cpu: WindowSize/SchedulerLatency require the OoO model")
	}
	return nil
}

// window tracks the completion times of in-flight independent references as
// a sorted ring: the head is always the earliest completion, so the
// full-window stall ("wait for the earliest slot") and the drain of
// completed references are O(1) per reference, with no per-op allocation.
// Completions mostly arrive in order, so insertion appends or prepends in
// O(1) and otherwise shifts the shorter side of the ring (the window is at
// most MaxOutstanding = 32 entries).
type window struct {
	buf  []sim.Time
	head int
	n    int
}

// min returns the earliest outstanding completion. The window must be
// non-empty.
func (w *window) min() sim.Time { return w.buf[w.head] }

// idx maps a logical window position to its ring slot without the modulo
// the hot path otherwise pays per element (head+i < 2·len always holds).
func (w *window) idx(i int) int {
	j := w.head + i
	if c := len(w.buf); j >= c {
		j -= c
	}
	return j
}

// insert adds a completion time, keeping the ring sorted. The window must
// not be full. A time at or past the last entry appends and one before the
// first prepends; otherwise a binary search finds its place and the
// shorter side of the ring moves one slot outward.
func (w *window) insert(t sim.Time) {
	n := w.n
	w.n++
	if n == 0 || t >= w.buf[w.idx(n-1)] {
		w.buf[w.idx(n)] = t
		return
	}
	if t < w.buf[w.head] {
		w.headBack()
		w.buf[w.head] = t
		return
	}
	// buf[0] ≤ t < buf[n-1]: find the first entry > t, in [1, n-1].
	lo, hi := 1, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.buf[w.idx(mid)] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n-lo {
		// Move entries 0..lo-1 one slot toward the head.
		w.headBack()
		for i := 0; i < lo; i++ {
			w.buf[w.idx(i)] = w.buf[w.idx(i+1)]
		}
	} else {
		// Move entries lo..n-1 one slot toward the tail.
		for i := n; i > lo; i-- {
			w.buf[w.idx(i)] = w.buf[w.idx(i-1)]
		}
	}
	w.buf[w.idx(lo)] = t
}

// headBack moves the head back one slot, so every entry's logical position
// rises by one.
func (w *window) headBack() {
	if w.head == 0 {
		w.head = len(w.buf)
	}
	w.head--
}

// drain removes every completion at or before now.
func (w *window) drain(now sim.Time) {
	for w.n > 0 && w.buf[w.head] <= now {
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
		w.n--
	}
}

// reset empties the window.
func (w *window) reset() { w.head, w.n = 0, 0 }

// Core is one simulated core, driven as a state machine on the engine. It
// implements sim.Handler, so steady-state stepping schedules zero
// allocations per instruction window.
type Core struct {
	cfg    Config
	gen    workload.Source
	access AccessFunc
	engine *sim.Engine

	win    window   // in-flight independent references, sorted by completion
	winMax sim.Time // latest completion ever inserted (drains are a sorted
	// prefix, so when the window is non-empty this is its maximum)

	// OoO scheduler state (zero in the in-order model and at quiescence).
	depReady  sim.Time // completion time of the last chain load (the chain register)
	chainPend sim.Time // completion of the chain load the core is running past; 0 = none
	ahead     int      // ops the core may still issue before chainPend must retire

	instrs     uint64
	memOps     uint64
	blockedOps uint64
	finishedAt sim.Time
	done       bool
	err        error
}

// New builds a core driven by any workload source (generator or trace
// replay).
func New(cfg Config, gen workload.Source, access AccessFunc) (*Core, error) {
	return NewInArena(nil, cfg, gen, access)
}

// NewInArena is New drawing the core and its window from a. A nil arena
// allocates normally.
func NewInArena(a *arena.Arena, cfg Config, gen workload.Source, access AccessFunc) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || access == nil {
		return nil, fmt.Errorf("cpu: generator and access function required")
	}
	c := arena.Alloc[Core](a, "cpu.Core")
	c.cfg, c.gen, c.access = cfg, gen, access
	c.win = window{buf: arena.Slice[sim.Time](a, "cpu.window", cfg.MaxOutstanding)}
	return c, nil
}

// Recycle returns the core and its window to a for the next run's
// construction; the workload source is its owner's to recycle. The core
// must not be used afterwards.
func (c *Core) Recycle(a *arena.Arena) {
	arena.Release(a, "cpu.window", c.win.buf)
	arena.Free(a, "cpu.Core", c)
}

// Start schedules the core's next step on the engine. On a fresh core that
// is time zero; after SetBudget extended a retired core, execution resumes
// where it left off (the engine clamps past times to its own clock).
func (c *Core) Start(e *sim.Engine) {
	c.engine = e
	e.ScheduleHandler(c.finishedAt, c)
}

// SetBudget replaces the total instruction budget and clears the done flag
// so the core can be (re)started — the warmup/measurement phasing hook.
// It does not clear an abort error.
func (c *Core) SetBudget(total uint64) {
	c.cfg.Instructions = total
	if c.err == nil {
		c.done = false
	}
}

// Handle implements sim.Handler: one engine dispatch is one core step.
func (c *Core) Handle(now sim.Time) {
	if c.cfg.OoO {
		c.stepOoO(now)
		return
	}
	c.step(now)
}

// step executes one instruction window: the compute gap, then the memory
// reference, then schedules the next step at the time the core can proceed.
func (c *Core) step(now sim.Time) {
	if c.done {
		return
	}
	if c.instrs >= c.cfg.Instructions {
		c.retire(now)
		return
	}
	op := c.gen.Next()
	c.instrs += uint64(op.Compute) + 1
	c.memOps++

	// Compute window retires at the peak issue rate.
	cycles := (uint64(op.Compute) + uint64(c.cfg.IssueWidth)) / uint64(c.cfg.IssueWidth)
	issueAt := now + sim.Time(cycles)*c.cfg.CycleTime

	done, err := c.access(issueAt, c.cfg.ID, op)
	if err != nil {
		c.err = err
		c.retire(issueAt)
		return
	}

	next := issueAt
	if op.Blocking {
		// Dependent load: the core cannot proceed until the data returns.
		c.blockedOps++
		next = done
	} else {
		// Independent reference: occupy an outstanding slot; stall only
		// when the window is full.
		c.win.drain(issueAt)
		if c.win.n == c.cfg.MaxOutstanding {
			if earliest := c.win.min(); earliest > next {
				next = earliest
			}
			c.win.drain(next)
		}
		if done > c.winMax {
			c.winMax = done
		}
		c.win.insert(done)
	}
	c.engine.ScheduleHandler(next, c)
}

// stepOoO is step under the out-of-order model. It is a deliberately
// separate implementation, not a parameterization of step: the in-order
// core is the oracle the randomized degeneracy tests compare it against,
// which only means something if the two schedules are computed
// independently.
//
// Independent references take exactly the in-order path (the
// MaxOutstanding miss window). Dependent (chain) loads differ in two ways:
// their issue waits for the chain register — the previous chain load's
// completion plus the scheduler's wakeup/select latency — and the core
// keeps issuing past them instead of stalling, up to WindowSize-1 ops
// beyond the incomplete load, after which it stalls until the load
// retires. A one-entry window cannot run ahead at all, which is the
// in-order schedule.
func (c *Core) stepOoO(now sim.Time) {
	if c.done {
		return
	}
	if c.instrs >= c.cfg.Instructions {
		c.retire(now)
		return
	}
	op := c.gen.Next()
	c.instrs += uint64(op.Compute) + 1
	c.memOps++

	cycles := (uint64(op.Compute) + uint64(c.cfg.IssueWidth)) / uint64(c.cfg.IssueWidth)
	issueAt := now + sim.Time(cycles)*c.cfg.CycleTime
	if op.Blocking && c.depReady > 0 {
		// Register-style dependency: the chain load's address comes from
		// the register the previous chain load wrote, through the
		// scheduler's wakeup/select stage.
		if ready := c.depReady + sim.Time(c.cfg.SchedulerLatency)*c.cfg.CycleTime; ready > issueAt {
			issueAt = ready
		}
	}

	done, err := c.access(issueAt, c.cfg.ID, op)
	if err != nil {
		c.err = err
		c.retire(issueAt)
		return
	}

	next := issueAt
	if op.Blocking {
		c.blockedOps++
		c.depReady = done
		if c.cfg.WindowSize == 1 {
			// No room to run ahead of the incomplete load: stall until the
			// data returns — exactly the in-order schedule.
			next = done
			c.chainPend, c.ahead = 0, 0
		} else {
			c.chainPend = done
			c.ahead = c.cfg.WindowSize - 1
		}
	} else {
		// Independent reference: occupy an outstanding slot; stall only
		// when the miss window is full (identical to the in-order model).
		c.win.drain(issueAt)
		if c.win.n == c.cfg.MaxOutstanding {
			if earliest := c.win.min(); earliest > next {
				next = earliest
			}
			c.win.drain(next)
		}
		if done > c.winMax {
			c.winMax = done
		}
		c.win.insert(done)
		// Run-ahead accounting against the pending chain load: each issued
		// op consumes one window slot beyond it; exhausting the window
		// stalls the core until the load retires.
		if c.chainPend != 0 {
			if c.chainPend <= next {
				c.chainPend, c.ahead = 0, 0
			} else if c.ahead--; c.ahead == 0 {
				next = c.chainPend
				c.chainPend = 0
			}
		}
	}
	c.engine.ScheduleHandler(next, c)
}

// retire finalizes the run at the time the last in-flight reference (or the
// final step) completes. Retirement drains the pipeline: the OoO chain
// state resets to structural zero, so a retired core is quiescent under
// either model.
func (c *Core) retire(now sim.Time) {
	end := now
	if c.win.n > 0 && c.winMax > end {
		end = c.winMax
	}
	if c.chainPend > end {
		end = c.chainPend
	}
	c.win.reset()
	c.winMax = 0
	c.depReady, c.chainPend, c.ahead = 0, 0, 0
	c.finishedAt = end
	c.done = true
}

// Done reports whether the core retired its budget (or faulted).
func (c *Core) Done() bool { return c.done }

// Err returns the access error that aborted the run, if any.
func (c *Core) Err() error { return c.err }

// Instructions returns retired instructions.
func (c *Core) Instructions() uint64 { return c.instrs }

// MemOps returns issued memory references.
func (c *Core) MemOps() uint64 { return c.memOps }

// BlockedOps returns how many references were dependence-blocking.
func (c *Core) BlockedOps() uint64 { return c.blockedOps }

// FinishedAt returns the core's completion time.
func (c *Core) FinishedAt() sim.Time { return c.finishedAt }

// IPC returns retired instructions per cycle over the core's lifetime.
func (c *Core) IPC() float64 {
	if c.finishedAt == 0 {
		return 0
	}
	cycles := float64(c.finishedAt) / float64(c.cfg.CycleTime)
	return float64(c.instrs) / cycles
}
