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
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	queue  []event // d-ary min-heap ordered by (at, seq)
	fired  uint64
	halted bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
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
	e.queue = append(e.queue, event{at: at, seq: e.seq, h: h})
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

// pop removes and returns the earliest event. The queue must be non-empty.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the Handler reference
	e.queue = q[:n]
	if n > 0 {
		e.siftDown()
	}
	return top
}

// Halt stops Run before the next event is dispatched. It is typically called
// from inside an event handler once a simulation's exit criterion is met.
func (e *Engine) Halt() { e.halted = true }

// Run dispatches events in timestamp order until the queue drains, Halt is
// called, or the optional horizon (non-zero) is reached. It returns the
// final simulated time.
//
// An event beyond the horizon stays in the queue (the head is peeked, not
// popped), so a subsequent Run with a larger horizon dispatches it.
func (e *Engine) Run(horizon Time) Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if horizon != 0 && e.queue[0].at > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return e.now
		}
		ev := e.pop()
		e.now = ev.at
		e.fired++
		ev.h.Handle(e.now)
	}
	return e.now
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }
