package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fn adapts a plain func to Handler, so tests can schedule closures.
type fn func(now Time)

func (f fn) Handle(now Time) { f(now) }

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleHandler(300, fn(func(Time) { got = append(got, 3) }))
	e.ScheduleHandler(100, fn(func(Time) { got = append(got, 1) }))
	e.ScheduleHandler(200, fn(func(Time) { got = append(got, 2) }))
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 300 {
		t.Fatalf("final time = %d, want 300", e.Now())
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleHandler(42, fn(func(Time) { got = append(got, i) }))
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestEngineSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.ScheduleHandler(1000, fn(func(now Time) {
		e.ScheduleHandler(5, fn(func(now Time) { fired = now }))
	}))
	e.Run(0)
	if fired != 1000 {
		t.Fatalf("past event fired at %d, want clamp to 1000", fired)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.ScheduleHandler(100, fn(func(Time) {
		e.AfterHandler(50, fn(func(now Time) { at = now }))
	}))
	e.Run(0)
	if at != 150 {
		t.Fatalf("AfterHandler fired at %d, want 150", at)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.ScheduleHandler(Time(i*10), fn(func(Time) {
			count++
			if count == 3 {
				e.Halt()
			}
		}))
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("halt ignored: %d events fired", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleHandler(Time(i*100), fn(func(Time) { count++ }))
	}
	final := e.Run(450)
	if count != 4 {
		t.Fatalf("events within horizon = %d, want 4", count)
	}
	if final != 450 {
		t.Fatalf("final time = %d, want horizon 450", final)
	}
}

// TestEngineHorizonKeepsFutureEvent is the regression test for the horizon
// event-loss bug: the first event past the horizon used to be popped and
// silently discarded, so re-running with a larger horizon never fired it.
func TestEngineHorizonKeepsFutureEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{100, 200, 300} {
		at := at
		e.ScheduleHandler(at, fn(func(now Time) { fired = append(fired, now) }))
	}
	if final := e.Run(150); final != 150 {
		t.Fatalf("first run ended at %d, want 150", final)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("first run fired %v, want [100]", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending after horizon = %d, want 2 (event at 200 must survive)", e.Pending())
	}
	if final := e.Run(250); final != 250 {
		t.Fatalf("second run ended at %d, want 250", final)
	}
	if len(fired) != 2 || fired[1] != 200 {
		t.Fatalf("extended horizon fired %v, want [100 200]", fired)
	}
	if final := e.Run(0); final != 300 {
		t.Fatalf("unbounded run ended at %d, want 300", final)
	}
	if len(fired) != 3 || fired[2] != 300 {
		t.Fatalf("final run fired %v, want all three events", fired)
	}
}

// TestEngineHorizonDoesNotRewindClock: a horizon earlier than the current
// clock must not move time backwards.
func TestEngineHorizonDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(1000, fn(func(Time) {}))
	e.ScheduleHandler(2000, fn(func(Time) {}))
	e.Run(1500)
	if e.Now() != 1500 {
		t.Fatalf("now = %d, want 1500", e.Now())
	}
	if final := e.Run(100); final != 1500 {
		t.Fatalf("smaller horizon rewound the clock to %d", final)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse fn
	recurse = func(now Time) {
		depth++
		if depth < 100 {
			e.AfterHandler(1, recurse)
		}
	}
	e.ScheduleHandler(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("nested depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("final time = %d, want 99", e.Now())
	}
}

// recorder is a Handler that logs its id into a shared slice.
type recorder struct {
	id  int
	out *[]int
}

func (r *recorder) Handle(Time) { *r.out = append(*r.out, r.id) }

// TestEngineSameTimestampFIFOMixedAPIs: events at one timestamp fire in
// scheduling order regardless of which kind of Handler (struct or func)
// was enqueued.
func TestEngineSameTimestampFIFOMixedAPIs(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			e.ScheduleHandler(42, &recorder{id: i, out: &got})
		} else {
			e.ScheduleHandler(42, fn(func(Time) { got = append(got, i) }))
		}
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO tie-break violated at %d: %v", i, got)
		}
	}
}

// halter halts the engine on its nth dispatch.
type halter struct {
	e     *Engine
	count int
	at    int
	fired *int
}

func (h *halter) Handle(Time) {
	h.count++
	*h.fired++
	if h.count == h.at {
		h.e.Halt()
	}
}

// TestEngineHaltMidDispatchAndResume: Halt from inside a handler stops the
// loop before the next dispatch, keeps the rest of the queue intact, and a
// fresh Run resumes exactly where it stopped.
func TestEngineHaltMidDispatchAndResume(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := &halter{e: e, at: 3, fired: &fired}
	for i := 0; i < 10; i++ {
		e.ScheduleHandler(Time(i*10), h)
	}
	e.Run(0)
	if fired != 3 {
		t.Fatalf("halt ignored: %d events fired", fired)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
	if e.Now() != 20 {
		t.Fatalf("halted at %d, want 20", e.Now())
	}
	// Run again: the halted flag must reset and the queue drain.
	e.Run(0)
	if fired != 10 || e.Pending() != 0 {
		t.Fatalf("resume incomplete: fired=%d pending=%d", fired, e.Pending())
	}
}

// stamp is a struct Handler, the shape components schedule, that records
// when it fired.
type stamp struct{ at Time }

func (s *stamp) Handle(now Time) { s.at = now }

// TestEngineScheduleHandlerClampsPast mirrors the func-handler clamp test
// for a struct Handler.
func TestEngineScheduleHandlerClampsPast(t *testing.T) {
	e := NewEngine()
	var h stamp
	e.ScheduleHandler(1000, fn(func(Time) { e.ScheduleHandler(5, &h) }))
	e.Run(0)
	if h.at != 1000 {
		t.Fatalf("past handler fired at %d, want clamp to 1000", h.at)
	}
}

// TestEngineManyEventsOrdered shuffles a large schedule through the d-ary
// heap and checks global dispatch order (timestamp, then insertion seq).
func TestEngineManyEventsOrdered(t *testing.T) {
	e := NewEngine()
	const n = 5000
	var got []Time
	// A deterministic scatter of timestamps with plenty of collisions.
	for i := 0; i < n; i++ {
		at := Time((i * 7919) % 257)
		e.ScheduleHandler(at, fn(func(now Time) { got = append(got, now) }))
	}
	e.Run(0)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if e.Fired() != n {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), n)
	}
}

// The TestResource* tests pin the contention contract — serial
// occupancy, gap filling, exact pruning — on Server, the simulator's one
// resource calendar.

func TestResourceSerializes(t *testing.T) {
	var r Server
	s1, d1 := r.Acquire(100, 50)
	if s1 != 100 || d1 != 150 {
		t.Fatalf("first acquire = (%d,%d), want (100,150)", s1, d1)
	}
	// Second request arrives while busy: queues.
	s2, d2 := r.Acquire(120, 30)
	if s2 != 150 || d2 != 180 {
		t.Fatalf("second acquire = (%d,%d), want (150,180)", s2, d2)
	}
	// Third arrives after idle gap: starts immediately.
	s3, d3 := r.Acquire(500, 10)
	if s3 != 500 || d3 != 510 {
		t.Fatalf("third acquire = (%d,%d), want (500,510)", s3, d3)
	}
	if r.BusyTime() != 90 {
		t.Fatalf("busy = %d, want 90", r.BusyTime())
	}
	if r.Uses() != 3 {
		t.Fatalf("uses = %d, want 3", r.Uses())
	}
}

func TestResourceReset(t *testing.T) {
	var r Server
	clk := &fakeClock{}
	r.Bind(clk)
	r.Acquire(10, 10)
	r.Acquire(50, 10)
	r.Reset()
	if r.NextFree() != 0 || r.BusyTime() != 0 || r.Uses() != 0 || r.liveGaps() != 0 {
		t.Fatal("reset did not clear state")
	}
	if r.clock != clk {
		t.Fatal("reset dropped the bound clock")
	}
}

// Property: service start is never before arrival, completion = start +
// service, and no two granted intervals overlap (the resource is serially
// occupied).
func TestResourceInvariantsQuick(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var r Server
		var now Time
		var granted []interval
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivals[i])
			svc := Time(services[i])
			start, done := r.Acquire(now, svc)
			if start < now || done != start+svc {
				return false
			}
			if svc == 0 {
				continue
			}
			for _, g := range granted {
				if start < g.end && g.start < done {
					return false // overlap
				}
			}
			granted = append(granted, interval{start, done})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResourceGapFilling: a request arriving in an idle gap between two
// future bookings is served in the gap, not behind them.
func TestResourceGapFilling(t *testing.T) {
	var r Server
	r.Acquire(0, 10)    // [0,10)
	r.Acquire(1000, 10) // [1000,1010)
	start, done := r.Acquire(20, 10)
	if start != 20 || done != 30 {
		t.Fatalf("gap request served at (%d,%d), want (20,30)", start, done)
	}
	// A request too big for the gap goes after everything.
	start, _ = r.Acquire(20, 2000)
	if start != 1010 {
		t.Fatalf("oversized request started at %d, want 1010", start)
	}
}

// fakeClock is a settable Clock for pruning tests.
type fakeClock struct{ now Time }

func (c *fakeClock) Now() Time { return c.now }

// TestResourceCalendarBounded: a clock-bound server retires past gaps, so
// the calendar stays O(outstanding window) even across arbitrarily long
// runs.
func TestResourceCalendarBounded(t *testing.T) {
	var r Server
	clk := &fakeClock{}
	r.Bind(clk)
	for i := 0; i < 10000; i++ {
		// The engine trails the arrival by a few bookings, as it does in
		// real runs where chains compute a little ahead of dispatch time.
		if i > 5 {
			clk.now = Time((i - 5) * 100)
		}
		r.Acquire(Time(i*100), 1)
	}
	// Pruning runs when the array fills, so the live calendar is the
	// trailing window plus at most one array's worth of closed gaps.
	if live := r.liveGaps(); live > 128 {
		t.Fatalf("live calendar grew to %d gaps", live)
	}
	if cap(r.gaps) > 128 {
		t.Fatalf("backing array grew to %d despite compaction", cap(r.gaps))
	}
	if r.Uses() != 10000 {
		t.Fatalf("uses = %d", r.Uses())
	}
}

// TestResourcePruneRetiresOnlyFullyPast: the watermark retires gaps that
// close at or before it; a booking straddling the watermark still delays
// arrivals inside it, and a later gap stays bookable.
func TestResourcePruneRetiresOnlyFullyPast(t *testing.T) {
	var r Server
	r.Acquire(0, 10)   // [0,10)
	r.Acquire(40, 20)  // [40,60) — straddles watermark 50; gap [10,40) closes before it
	r.Acquire(100, 10) // [100,110) — future; gap [60,100)
	r.Prune(50)
	if live := r.liveGaps(); live != 1 {
		t.Fatalf("live = %d, want 1 (the gap after the watermark must survive)", live)
	}
	// The straddling booking still delays a request arriving inside it.
	start, _ := r.Acquire(50, 5)
	if start != 60 {
		t.Fatalf("request inside straddling booking started at %d, want 60", start)
	}
	// A monotone-violating (earlier) watermark is a no-op.
	r.Prune(10)
	if r.watermark != 50 {
		t.Fatalf("watermark regressed to %d", r.watermark)
	}
}

// TestResourceGapBookingAcrossWatermark: an idle gap that straddles the
// watermark stays bookable for arrivals at or after the watermark.
func TestResourceGapBookingAcrossWatermark(t *testing.T) {
	var r Server
	r.Acquire(0, 10)    // [0,10)
	r.Acquire(1000, 10) // [1000,1010); gap [10,1000)
	r.Prune(500)        // the gap now straddles the watermark
	start, done := r.Acquire(500, 100)
	if start != 500 || done != 600 {
		t.Fatalf("gap booking across watermark = (%d,%d), want (500,600)", start, done)
	}
}

// TestResourceCountersSurvivePruning: BusyTime, Uses and NextFree are
// unaffected by calendar retirement.
func TestResourceCountersSurvivePruning(t *testing.T) {
	var r Server
	r.Acquire(0, 30)
	r.Acquire(100, 70)
	busy, uses, next := r.BusyTime(), r.Uses(), r.NextFree()
	r.Prune(1000)
	if r.liveGaps() != 0 {
		t.Fatalf("live = %d, want 0", r.liveGaps())
	}
	if r.BusyTime() != busy || r.Uses() != uses || r.NextFree() != next {
		t.Fatalf("counters changed by pruning: busy %d→%d uses %d→%d next %d→%d",
			busy, r.BusyTime(), uses, r.Uses(), next, r.NextFree())
	}
}

// interval is one busy period [start, end) of the reference calendar.
type interval struct{ start, end Time }

// intervalCalendar is the reference contention calendar Server is held to:
// the busy intervals, sorted and disjoint, never retired or forgotten. A
// request starts in the earliest idle window at or after its arrival that
// fits it, else behind the last booking.
type intervalCalendar struct {
	busy []interval
}

func (c *intervalCalendar) Acquire(now, service Time) (start, done Time) {
	if service == 0 {
		return now, now
	}
	iv := c.busy
	// Intervals ending at or before the arrival can neither delay the
	// request nor host it.
	i := sort.Search(len(iv), func(j int) bool { return iv[j].end > now })
	start = now
	for ; i < len(iv) && start+service > iv[i].start; i++ {
		start = max(start, iv[i].end)
	}
	done = start + service
	c.busy = append(c.busy, interval{})
	copy(c.busy[i+1:], c.busy[i:])
	c.busy[i] = interval{start, done}
	return start, done
}

// maxGapCap bounds a Server's backing array: insertGap only grows it when
// three quarters of it are live, to twice the live count, so it stays a
// fixed multiple of the live bound however long the server runs.
const maxGapCap = 4 * maxLiveGaps

// reachableGaps counts s's live gaps that close after w: the ones a future
// arrival at or after w could still book.
func reachableGaps(s *Server, w Time) int {
	n := 0
	for _, g := range s.gaps[s.head:] {
		if g.end > w {
			n++
		}
	}
	return n
}

// contentionSequence drives a randomized arrival pattern against a
// clock-bound Server and the unpruned reference calendar. The engine time
// trails the arrival front the way real event dispatch does, and arrivals
// jitter backward within the trailing window to exercise out-of-order gap
// booking across the watermark boundary. Besides matching every grant, the
// server must keep its backing array within twice the peak count of
// reachable gaps.
func contentionSequence(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var oracle intervalCalendar
	var srv Server
	clk := &fakeClock{}
	srv.Bind(clk)
	var front Time // the farthest arrival seen; the clock trails it
	peak := 0      // the most gaps reachable from the clock after any step
	for i := 0; i < 5000; i++ {
		front += Time(rng.Intn(200))
		// Arrivals land anywhere between the clock and the front (chains
		// started at earlier events finish their bookings late).
		span := front - clk.now
		now := clk.now
		if span > 0 {
			now += Time(rng.Int63n(int64(span) + 1))
		}
		svc := Time(rng.Intn(100))
		os, od := oracle.Acquire(now, svc)
		ss, sd := srv.Acquire(now, svc)
		if os != ss || od != sd {
			t.Fatalf("seed %d step %d: server (%d,%d) != oracle (%d,%d) for Acquire(%d,%d)",
				seed, i, ss, sd, os, od, now, svc)
		}
		// Closed gaps are retired before the array grows, so it is sized
		// by the gaps still reachable, not by the live bound.
		peak = max(peak, reachableGaps(&srv, clk.now))
		if c := cap(srv.gaps); c > 2*peak+1 {
			t.Fatalf("seed %d step %d: backing array holds %d gaps, peak reachable is %d", seed, i, c, peak)
		}
		// Advance the clock to trail the front by a bounded window, as the
		// engine's dispatch time trails in-flight chains.
		if front > 500 && clk.now < front-500 {
			clk.now = front - 500
		}
	}
	if srv.Uses() != 5000 {
		t.Fatalf("seed %d: uses = %d", seed, srv.Uses())
	}
	if gaps := srv.liveGaps(); gaps > 1024 {
		t.Fatalf("seed %d: server gap calendar grew to %d", seed, gaps)
	}
	if c := cap(srv.gaps); c > maxGapCap {
		t.Fatalf("seed %d: backing array grew to %d gaps", seed, c)
	}
}

// TestContentionImplementationsAgree is the fuzz-style cross-check: pruning
// must be invisible (watermark ≤ every future arrival ⇒ identical grants),
// and the batched Server must be an exact re-representation of the interval
// calendar.
func TestContentionImplementationsAgree(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		contentionSequence(t, seed)
	}
	farGapSequence(t)
}

// farGapSequence books a wide idle window and then 40 narrow ones after
// it, so a request too long for the narrow ones fits only in a gap more
// than 32 gaps from the calendar's end; a search that looks only near the
// end would queue it behind the tail instead.
func farGapSequence(t *testing.T) {
	t.Helper()
	var oracle intervalCalendar
	var srv Server
	acquire := func(now, svc Time) {
		t.Helper()
		os, od := oracle.Acquire(now, svc)
		ss, sd := srv.Acquire(now, svc)
		if os != ss || od != sd {
			t.Fatalf("far gap: server (%d,%d) != oracle (%d,%d) for Acquire(%d,%d)", ss, sd, os, od, now, svc)
		}
	}
	acquire(0, 10)
	for i := Time(0); i <= 40; i++ {
		acquire(1000+12*i, 10) // the first leaves [10,1000) idle, the rest 2ps each
	}
	if n := srv.liveGaps(); n != 41 {
		t.Fatalf("far gap: %d live gaps, want 41", n)
	}
	acquire(5, 500)
	if g := srv.gaps[srv.head]; g.start != 10+500 || g.end != 1000 {
		t.Fatalf("far gap: the wide window was not the one booked: %+v", srv.gaps[srv.head])
	}
}

// splitStep makes one arrival of a split-heavy pattern: mostly a request
// landing inside one of the newest recent live gaps, which splits it, and
// otherwise an in-order arrival a little past the tail, which opens a new
// gap. Arrivals never reach back past the newest recent gaps, so forgetting
// older ones (the maxLiveGaps bound) cannot change a grant.
func splitStep(rng *rand.Rand, s *Server, recent int) (now, svc Time) {
	live := s.gaps[s.head:]
	if len(live) > recent {
		live = live[len(live)-recent:]
	}
	if len(live) == 0 || rng.Intn(3) == 0 {
		return s.tail + 1 + Time(rng.Intn(64)), 1 + Time(rng.Intn(16))
	}
	g := live[rng.Intn(len(live))]
	now = g.start + Time(rng.Int63n(int64(g.end-g.start)))
	return now, 1 + Time(rng.Intn(int(g.end-g.start)))
}

// TestServerSplitHeavyBoundedArray is the regression test for the backing
// array: interior splits of a server whose clock lags far behind keep the
// live calendar at the maxLiveGaps bound for most of the run, and every
// growth of the array must compact the retired prefix rather than carry it.
// Grants still match the unpruned reference one for one.
func TestServerSplitHeavyBoundedArray(t *testing.T) {
	const steps = 40000
	rng := rand.New(rand.NewSource(7))
	var oracle intervalCalendar
	var srv Server
	clk := &fakeClock{}
	srv.Bind(clk)
	atBound := 0
	for i := 0; i < steps; i++ {
		now, svc := splitStep(rng, &srv, 64)
		os, od := oracle.Acquire(now, svc)
		ss, sd := srv.Acquire(now, svc)
		if os != ss || od != sd {
			t.Fatalf("step %d: server (%d,%d) != oracle (%d,%d) for Acquire(%d,%d)",
				i, ss, sd, os, od, now, svc)
		}
		if srv.liveGaps() >= maxLiveGaps {
			atBound++
		}
		if c := cap(srv.gaps); c > maxGapCap {
			t.Fatalf("step %d: backing array grew to %d gaps (%d live)", i, c, srv.liveGaps())
		}
		// The clock lags far behind the arrivals: it only ever retires
		// gaps much older than the bound already forgets.
		if srv.tail > 50_000 {
			clk.now = srv.tail - 50_000
		}
	}
	if atBound < steps/2 {
		t.Fatalf("live calendar sat at the bound for %d of %d steps; the sequence does not exercise it", atBound, steps)
	}
}

// TestServerSplitHeavyAllocs: once warm, a split-heavy server compacts its
// calendar in place and allocates nothing. Each measured run is a whole
// batch of Acquires, so geometric growth of the array — which averages
// to 0 allocs per call — still counts.
func TestServerSplitHeavyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var srv Server
	batch := func() {
		for i := 0; i < 20000; i++ {
			srv.Acquire(splitStep(rng, &srv, 64))
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(5, batch); allocs != 0 {
		t.Fatalf("warm split-heavy server allocated %.0f times per 20000 Acquires, want 0", allocs)
	}
}

func TestTimeUnits(t *testing.T) {
	if NS(1) != 1000 || US(1) != 1000*1000 {
		t.Fatal("unit conversion wrong")
	}
	if Nanosecond != 1000*Picosecond || Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit constants wrong")
	}
}
