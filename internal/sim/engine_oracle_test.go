package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEngine is the engine Run used to be: it pops the event it dispatches
// before the handler runs, so every ScheduleHandler pushes. The stale-root
// Engine is held to it.
type refEngine struct {
	now   Time
	seq   uint64
	queue []event
	fired uint64
}

func (e *refEngine) Now() Time          { return e.now }
func (e *refEngine) Fired() uint64      { return e.fired }
func (e *refEngine) Pending() int       { return len(e.queue) }
func (e *refEngine) less(i, j int) bool { return e.queue[i].before(e.queue[j]) }

func (e *refEngine) ScheduleHandler(at Time, h Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.queue = append(e.queue, event{at: at, seq: e.seq, h: h})
	for i := len(e.queue) - 1; i > 0; {
		p := (i - 1) / degree
		if !e.less(i, p) {
			break
		}
		e.queue[i], e.queue[p] = e.queue[p], e.queue[i]
		i = p
	}
}

func (e *refEngine) pop() event {
	top := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	for i := 0; ; {
		best := i
		for c := i*degree + 1; c <= i*degree+degree && c < n; c++ {
			if e.less(c, best) {
				best = c
			}
		}
		if best == i {
			break
		}
		e.queue[i], e.queue[best] = e.queue[best], e.queue[i]
		i = best
	}
	return top
}

func (e *refEngine) Run(horizon Time) Time {
	for len(e.queue) > 0 {
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

// scheduler is the API both engines share.
type scheduler interface {
	ScheduleHandler(at Time, h Handler)
	Run(horizon Time) Time
	Now() Time
	Fired() uint64
	Pending() int
}

// oracleWorld is a population of handlers on one engine. Each dispatch
// logs the handler, the time and what Pending reports from inside the
// handler, then draws from the world's RNG how many events to schedule
// (zero, one or two), for which handlers (itself or others) and when
// (often a tie with Now). Two worlds with the same
// seed draw the same decisions for as long as their dispatches agree.
type oracleWorld struct {
	e        scheduler
	rng      *rand.Rand
	handlers []*oracleHandler
	log      []string
	budget   int // dispatches left that may schedule; then the queue drains
}

type oracleHandler struct {
	w  *oracleWorld
	id int
}

func (h *oracleHandler) Handle(now Time) {
	w := h.w
	w.log = append(w.log, fmt.Sprintf("%d@%d pending=%d", h.id, now, w.e.Pending()))
	if w.budget > 0 {
		w.budget--
		// Mostly one event, as a stepping core schedules; keep the queue
		// alive while it is empty and bounded while it is long.
		n := 1
		switch r := w.rng.Intn(8); {
		case r == 0 && w.e.Pending() > 0:
			n = 0
		case r >= 6 && w.e.Pending() < 40:
			n = 2
		}
		for range n {
			target := h
			if w.rng.Intn(3) == 0 {
				target = w.handlers[w.rng.Intn(len(w.handlers))]
			}
			var at Time
			switch w.rng.Intn(4) {
			case 0:
				at = now // a tie with the dispatched event
			case 1:
				at = now - Time(w.rng.Intn(3)) // clamps to now
			default:
				at = now + Time(w.rng.Intn(40))
			}
			w.e.ScheduleHandler(at, target)
		}
	}
}

func newOracleWorld(e scheduler, seed int64, handlers int) *oracleWorld {
	w := &oracleWorld{e: e, rng: rand.New(rand.NewSource(seed)), budget: 3000}
	for i := range handlers {
		w.handlers = append(w.handlers, &oracleHandler{w: w, id: i})
	}
	for i, h := range w.handlers {
		e.ScheduleHandler(Time(i%3)*7, h)
	}
	return w
}

// TestEngineMatchesPopThenPush drives handlers that schedule zero, one or
// two events — their own and other handlers' — under a mix of unbounded and horizon-bounded Run calls, and requires the
// stale-root Engine to dispatch exactly what the pop-then-push reference
// dispatches, in the same order, with the same Now, Fired and Pending
// (also as seen from inside a handler) after every Run.
func TestEngineMatchesPopThenPush(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		handlers := 1 + int(seed%6)
		got := newOracleWorld(NewEngine(), seed, handlers)
		want := newOracleWorld(&refEngine{}, seed, handlers)
		horizons := rand.New(rand.NewSource(-seed))
		for call := 0; want.e.Pending() > 0 || got.e.Pending() > 0; call++ {
			if call > 100000 {
				t.Fatalf("seed %d: queue never drained", seed)
			}
			var horizon Time
			if horizons.Intn(2) == 0 {
				horizon = want.e.Now() + Time(horizons.Intn(60))
			}
			gt, wt := got.e.Run(horizon), want.e.Run(horizon)
			if gt != wt || got.e.Fired() != want.e.Fired() || got.e.Pending() != want.e.Pending() {
				t.Fatalf("seed %d call %d (horizon %d): now/fired/pending %d/%d/%d, reference %d/%d/%d",
					seed, call, horizon, gt, got.e.Fired(), got.e.Pending(), wt, want.e.Fired(), want.e.Pending())
			}
			if !slices.Equal(got.log, want.log) {
				for i := range min(len(got.log), len(want.log)) {
					if got.log[i] != want.log[i] {
						t.Fatalf("seed %d: dispatch %d is %s, reference %s", seed, i, got.log[i], want.log[i])
					}
				}
				t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got.log), len(want.log))
			}
		}
		if got.e.Fired() < 1000 {
			t.Fatalf("seed %d: only %d dispatches; the sequence is too short to test", seed, got.e.Fired())
		}
	}
}
