package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"deact/internal/sim"
)

// newWindow returns an empty window of the given capacity.
func newWindow(capacity int) window { return window{buf: make([]sim.Time, capacity)} }

// TestWindowMatchesSortedMultiset drives the ring through random inserts —
// mostly in completion order, some before the head, some in the middle,
// with repeats — interleaved with drains, min reads and resets, and
// requires it to hold exactly the multiset a sorted slice holds, in
// order, after every operation. Capacities 1 and 2 exercise the ends
// alone; odd capacities exercise wrap-around at every head position.
func TestWindowMatchesSortedMultiset(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 32} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(capacity)))
			w := newWindow(capacity)
			var ref []sim.Time
			var now, front sim.Time
			contents := func() []sim.Time {
				out := make([]sim.Time, w.n)
				for i := range out {
					out[i] = w.buf[w.idx(i)]
				}
				return out
			}
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(10); {
				case r < 6 && len(ref) < capacity:
					var tm sim.Time
					switch rng.Intn(4) {
					case 0: // before everything outstanding
						tm = now + sim.Time(rng.Intn(3))
					case 1: // anywhere in the outstanding range
						tm = now + sim.Time(rng.Intn(int(front-now)+1))
					default: // in order, often a repeat of the latest
						front += sim.Time(rng.Intn(3))
						tm = front
					}
					if tm > front {
						front = tm
					}
					w.insert(tm)
					i, _ := slices.BinarySearch(ref, tm+1)
					ref = slices.Insert(ref, i, tm)
				case r < 9:
					now += sim.Time(rng.Intn(4))
					if front < now {
						front = now
					}
					w.drain(now)
					for len(ref) > 0 && ref[0] <= now {
						ref = ref[1:]
					}
				case rng.Intn(20) == 0:
					w.reset()
					ref = ref[:0]
				}
				if w.n != len(ref) || !slices.Equal(contents(), ref) {
					t.Fatalf("cap %d seed %d op %d: window %v, reference %v", capacity, seed, op, contents(), ref)
				}
				if w.n > 0 && w.min() != ref[0] {
					t.Fatalf("cap %d seed %d op %d: min %d, reference %d", capacity, seed, op, w.min(), ref[0])
				}
			}
		}
	}
}
