// Package sim provides a small deterministic discrete-event simulation
// engine in the spirit of SST (the Structural Simulation Toolkit), which the
// DeACT paper uses for its evaluation. Components schedule events on a
// shared engine; ties are broken by insertion order so that runs are fully
// reproducible.
//
// The event queue is a value-based indexed d-ary heap: events are stored
// inline (no per-event heap allocation), and the steady-state scheduling
// path allocates nothing once the queue has reached its high-water mark.
// Components implement Handler and schedule themselves with
// ScheduleHandler/AfterHandler, the one closure-free scheduling API.
//
// All simulated time is expressed in picoseconds (type Time). At the 2GHz
// core clock used throughout the paper one cycle is 500ps.
package sim

import "deact/internal/arena"

// Time is a simulated timestamp in picoseconds.
type Time uint64

// Common time units, all expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// NS converts a nanosecond count to a Time.
func NS(n uint64) Time { return Time(n) * Nanosecond }

// US converts a microsecond count to a Time.
func US(n uint64) Time { return Time(n) * Microsecond }

// Handler is a scheduled callback. Self-rescheduling components (a CPU core
// stepping through its instruction stream, a refresh engine) implement it
// once and pass themselves to ScheduleHandler, so steady-state simulation
// allocates zero events per dispatch.
type Handler interface {
	Handle(now Time)
}

// event is one scheduled callback, stored by value in the heap.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// degree is the heap arity. A 4-ary heap trades slightly more sift-down
// comparisons for half the tree depth and much better cache behaviour than
// a binary heap on the wide, shallow queues this simulator produces.
const degree = 4

// before orders events by (timestamp, insertion sequence): the FIFO
// tie-break that makes runs reproducible.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler.
//
// Run leaves the event it dispatches at the root of the heap while the
// handler runs, marked stale. The simulator's only event sources are
// self-rescheduling cores, so a dispatch usually schedules exactly one
// event; the first ScheduleHandler of a dispatch overwrites the stale root
// and sifts it down once, where a pop and a push would each walk the heap.
// The new event is often the next one to fire (57% of the steps of a
// two-node I-FAM sssp run, 95% of a DeACT-N sp run), and then the sift
// stops at the root. A dispatch that schedules nothing pops the stale root
// when the handler returns. The (at, seq) keys are unique and seq is
// assigned in the same order either way, so events fire in exactly the
// order a pop before each dispatch and a push per schedule would give.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue []event // d-ary min-heap ordered by (at, seq)
	// stale is set while queue[0] is the event being dispatched: the next
	// ScheduleHandler replaces it, else Run pops it after the handler.
	stale bool
	fired uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// queueCap is the pooled event queue's initial capacity: a simulated
// core has at most one event pending, so systems of up to 64 cores never
// grow it (larger ones grow it by append).
const queueCap = 64

// NewEngineInArena is NewEngine drawing the engine and its event queue
// from a. A nil arena allocates normally.
func NewEngineInArena(a *arena.Arena) *Engine {
	e := arena.Alloc[Engine](a, "sim.Engine")
	if a != nil {
		e.queue = arena.Slice[event](a, "sim.queue", queueCap)[:0]
	}
	return e
}

// Recycle hands the engine and its queue back to a for the next run. The
// engine must not be used afterwards. A nil arena is a no-op.
func (e *Engine) Recycle(a *arena.Arena) {
	if a == nil {
		return
	}
	clear(e.queue) // drop the handlers of events a cancelled run left
	arena.Release(a, "sim.queue", e.queue)
	arena.Free(a, "sim.Engine", e)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleHandler enqueues h to run at absolute time at. Scheduling in the
// past (at < Now) clamps to Now; this keeps component code simple when
// latencies round to zero.
func (e *Engine) ScheduleHandler(at Time, h Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := event{at: at, seq: e.seq, h: h}
	if e.stale {
		// Take the dispatched event's slot: a root replaced by any key
		// is placed by one sift down.
		e.stale = false
		e.queue[0] = ev
		e.siftDown()
		return
	}
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// AfterHandler enqueues h to run delay picoseconds from now.
func (e *Engine) AfterHandler(delay Time, h Handler) {
	e.ScheduleHandler(e.now+delay, h)
}

// siftUp restores the heap property from leaf i toward the root.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / degree
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// siftDown restores the heap property from the root toward the leaves.
func (e *Engine) siftDown() {
	q := e.queue
	n := len(q)
	ev := q[0]
	i := 0
	for {
		first := i*degree + 1
		if first >= n {
			break
		}
		best := first
		last := first + degree
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[best]) {
				best = c
			}
		}
		if !q[best].before(ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// pop removes the earliest event. The queue must be non-empty.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the Handler reference
	e.queue = q[:n]
	if n > 0 {
		e.siftDown()
	}
}

// Run dispatches events in timestamp order until the queue drains or the
// optional horizon (non-zero) is reached. It returns the final simulated
// time.
//
// An event beyond the horizon stays in the queue (the head is peeked, not
// popped), so a subsequent Run with a larger horizon dispatches it.
func (e *Engine) Run(horizon Time) Time {
	for len(e.queue) > 0 {
		if horizon != 0 && e.queue[0].at > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return e.now
		}
		ev := e.queue[0]
		e.now = ev.at
		e.fired++
		e.stale = true
		ev.h.Handle(e.now)
		if e.stale {
			e.stale = false
			e.pop()
		}
	}
	return e.now
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int {
	if e.stale {
		return len(e.queue) - 1
	}
	return len(e.queue)
}
