package sim

import "deact/internal/arena"

// Clock supplies the current simulated time. *Engine implements it; a
// calendar bound to a clock uses it as a pruning watermark: no future request
// can arrive before the engine's current time (access chains are computed
// forward from the dispatching event), so idle windows that closed at or
// before it can be retired exactly.
type Clock interface {
	Now() Time
}

// Server models a serially occupied hardware resource — a memory-device
// bank, a fabric link direction, an STU port — whose requests may start in
// any idle window at or after their arrival. A request occupies the server
// for its service time; overlapping requests queue.
//
// Booking into idle windows, rather than behind a scalar next-free time,
// matters because the simulator computes whole access chains
// synchronously: a page-table walk reserves a link at T, T+1.1µs, T+2.2µs…,
// and with a scalar every other requester would queue behind the last of
// those reservations even though the link is idle in between — which
// silently serializes the whole machine.
//
// The representation is batched for the common case: a single tail time
// serves in-order arrivals in O(1), and only out-of-order arrivals (a
// request computed by an access chain that started earlier than another
// chain's bookings) consult a calendar of the idle gaps before the tail.
// For the device banks and fabric links, whose arrivals are overwhelmingly
// tail-ordered, the calendar stays near empty and Acquire is a compare and
// an add. Grants equal those of a sorted busy-interval calendar that never
// forgets anything, as long as the maxLiveGaps bound drops only closed
// gaps; the package tests hold the two to each other.
//
// A Server bound to a Clock retires gaps that closed at or before the
// engine's current time — exact pruning, since no future arrival can
// precede it. Pruning is kept off the tail fast path and has one site:
// insertGap runs it when a new idle gap finds the backing array full,
// before compacting or growing, O(1) amortized (each gap is appended,
// skipped and compacted away once). The array is thus sized by the gaps
// still reachable from the clock, which in a two-node I-FAM sssp run at
// the default scale is ~16 of the ~70 live gaps an out-of-order Acquire
// sees on average.
//
// A pooled system recycles the backing arrays across runs (NewServers,
// RecycleServers). A recycled calendar starts empty and differs from a
// fresh one only in capacity, which decides when insertGap prunes but
// never what Acquire grants.
type Server struct {
	clock     Clock
	tail      Time  // end of the last booking; everything at/after is free
	gaps      []gap // gaps[head:] is live: sorted, disjoint, before tail
	head      int   // retired prefix length, compacted away by insertGap
	watermark Time
}

type gap struct{ start, end Time }

// maxLiveGaps bounds the live gap calendar: when a new gap would exceed it,
// the server first retires what its clock allows, and only if that leaves
// the bound reached is the oldest live gap forgotten (no longer bookable),
// which can only over-serialize the distant past. Pruning first makes the
// bound count only gaps a future arrival can still book, so whether it
// fires, and which gap it drops, does not depend on how much closed
// history the array happens to hold: a recycled calendar, whose larger
// array prunes less often, drops exactly the gaps a fresh one drops. A
// two-node I-FAM sssp run at the default scale hits it 0 times. The bound
// caps memory for unbound servers and for clocks that lag far behind.
const maxLiveGaps = 512

// NewServers returns n empty, unbound servers. From a buffer released to
// a under tag with RecycleServers, each server keeps the gap array the
// server at its index had, so a device's calendars come back to the banks
// that grew them and regrow to their high-water marks without allocating.
// A nil arena allocates normally.
func NewServers(a *arena.Arena, tag string, n int) []Server {
	s := arena.Reclaim[Server](a, tag, n)
	for i := range s {
		s[i] = Server{gaps: s[i].gaps[:0]}
	}
	return s
}

// RecycleServers hands s back to a under tag, each server with its gap
// array. The servers must not be used afterwards. A nil arena is a no-op.
func RecycleServers(a *arena.Arena, tag string, s []Server) {
	arena.Release(a, tag, s)
}

// Bind attaches the pruning clock. The caller guarantees that no subsequent
// Acquire arrives earlier than the clock's Now() at call time.
func (s *Server) Bind(c Clock) { s.clock = c }

// pruneToClock retires what the bound clock allows (nothing when unbound).
func (s *Server) pruneToClock() {
	if s.clock != nil {
		s.Prune(s.clock.Now())
	}
}

// atBound prunes to the clock once the live range has reached
// maxLiveGaps and reports whether it is still there: the bound fires on
// reachable gaps only.
func (s *Server) atBound() bool {
	if len(s.gaps)-s.head < maxLiveGaps {
		return false
	}
	s.pruneToClock()
	return len(s.gaps)-s.head >= maxLiveGaps
}

// Prune retires gaps that closed at or before w; the watermark is monotone.
// A gap straddling w stays bookable.
func (s *Server) Prune(w Time) {
	if w <= s.watermark {
		return
	}
	s.watermark = w
	for s.head < len(s.gaps) && s.gaps[s.head].end <= w {
		s.head++
	}
}

// Acquire reserves the server for service picoseconds starting no earlier
// than now, in the earliest idle window that fits. It returns the service
// start and completion times. When a clock is bound, now must not precede
// the clock's current time.
func (s *Server) Acquire(now, service Time) (start, done Time) {
	if service == 0 {
		return now, now
	}
	if now >= s.tail {
		// Tail fast path: the arrival is past every booking. The idle
		// stretch it skips over becomes a bookable gap.
		if now > s.tail {
			s.pushGap(s.tail, now)
		}
		s.tail = now + service
		return now, s.tail
	}
	// Out-of-order arrival. Gap ends are ascending (gaps are created in
	// tail order and splits keep both halves in place), so if the request
	// cannot finish inside the latest-ending live gap it fits no gap at
	// all: queue straight behind the tail without touching the calendar.
	// This keeps the common "barely out of order" arrival — behind the
	// tail but past every idle window — at two compares.
	if n := len(s.gaps); n == s.head || now+service > s.gaps[n-1].end {
		start = s.tail
		s.tail += service
		return start, s.tail
	}
	// Take the earliest gap that fits, else queue behind the tail. Gaps
	// closing at or before the arrival cannot host it (their remaining
	// room ends before now+service); gap ends are sorted, so the gaps that
	// can are a suffix of the live range. Find its start by scanning back
	// from the end: arrivals reach only a few gaps back (6.8 on average in
	// a default-scale two-node I-FAM sssp run), so the scan reads adjacent
	// gaps next to the one checked above, where a binary search jumps
	// across the whole live range.
	lo := len(s.gaps) - 1
	for lo > s.head && s.gaps[lo-1].end > now {
		lo--
	}
	for i := lo; i < len(s.gaps); i++ {
		g := s.gaps[i]
		start = now
		if g.start > start {
			start = g.start
		}
		if start+service > g.end {
			continue
		}
		done = start + service
		s.bookInGap(i, g, start, done)
		return start, done
	}
	start = s.tail
	s.tail += service
	return start, s.tail
}

// pushGap records [from, to) as idle. Gaps are created in tail order, so
// appending keeps the calendar sorted.
func (s *Server) pushGap(from, to Time) {
	if to <= s.watermark {
		return // already unreachable
	}
	// Bound the live calendar by forgetting the oldest idle window: an O(1)
	// head advance, no copy.
	if s.atBound() {
		s.head++
	}
	s.insertGap(len(s.gaps), gap{start: from, end: to})
}

// bookInGap splits gaps[i] around the booking [start, done).
func (s *Server) bookInGap(i int, g gap, start, done Time) {
	left := gap{start: g.start, end: start}
	right := gap{start: done, end: g.end}
	hasL := left.end > left.start
	hasR := right.end > right.start
	switch {
	case hasL && hasR:
		// An interior booking nets one extra live gap; honor the same
		// live bound as pushGap (dropping the oldest window) so unbound
		// servers stay bounded under split-heavy patterns too. Skip when
		// the oldest live gap is the one being split (pruning cannot pass
		// it: it closes after the arrival, hence after the clock).
		if s.atBound() && s.head < i {
			s.head++
		}
		s.gaps[i] = left
		s.insertGap(i+1, right)
	case hasL:
		s.gaps[i] = left
	case hasR:
		s.gaps[i] = right
	default:
		s.gaps = append(s.gaps[:i], s.gaps[i+1:]...)
	}
}

// insertGap inserts g before gaps[i] (i == len(gaps) appends). Every growth
// of the calendar goes through here, and none carries a retired gap along:
// at capacity it first retires what the bound clock allows (the only prune
// site), then compacts the live gaps to the front — in place when a quarter
// or more of the array is retired, else into a fresh array twice their
// number. The array is therefore sized by the gaps still reachable, never
// by the server's history or the maxLiveGaps bound. Pruning drops only
// gaps no future arrival can book, and compaction retires nothing, so
// every grant is unchanged. The caller's index stays valid: every gap from
// gaps[i] on closes after the clock, so pruning never advances head past i.
func (s *Server) insertGap(i int, g gap) {
	if len(s.gaps) == cap(s.gaps) {
		s.pruneToClock()
		live := s.gaps[s.head:]
		if s.head*4 >= len(s.gaps) {
			s.gaps = s.gaps[:copy(s.gaps, live)]
		} else {
			s.gaps = append(make([]gap, 0, 2*len(live)+1), live...)
		}
		i -= s.head
		s.head = 0
	}
	s.gaps = append(s.gaps, gap{})
	copy(s.gaps[i+1:], s.gaps[i:])
	s.gaps[i] = g
}

// NextFree returns the end of the last booking — the earliest time a
// request arriving after all current bookings could begin service.
func (s *Server) NextFree() Time { return s.tail }

// liveGaps returns the number of unretired idle windows (tests).
func (s *Server) liveGaps() int { return len(s.gaps) - s.head }

// Reset clears all reservation state, keeping the bound clock.
func (s *Server) Reset() { *s = Server{clock: s.clock} }
