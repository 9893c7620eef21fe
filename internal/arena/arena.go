// Package arena recycles the large backing arrays a simulated system is
// built from, so a sweep's hundreds of runs reuse one set of allocations
// instead of handing ~2.5MB of zeroed memory to the garbage collector per
// run. Construction-time consumers (cache line arrays, TLB arrays,
// translator lines, page-table arenas, the ACM page table)
// request buffers with Slice and hand them back with Release once the run's
// System is torn down; the next run's identical geometry then reuses them
// byte-for-byte. Maps (the broker's free-pool overrides) recycle the same
// way through Map and ReleaseMap, per-structure headers through Alloc and
// Free, and random sources through Rand and ReleaseRand.
//
// Buffers are keyed by a per-call-site tag and matched best-fit by
// capacity, so a sweep that varies one structure's geometry still recycles
// every other structure. Slice zeroes what it returns and Map returns an
// empty map, which is the whole determinism story: a recycled system is
// bit-identical to a freshly allocated one, and the golden-report CI job
// holds that property.
//
// A fresh buffer under a page is padded to keep its cache lines to
// itself, since pools of concurrently running simulations would otherwise
// share lines (see isolated).
//
// An Arena is not safe for concurrent use. The experiment Runner keeps one
// arena per worker-pool slot, giving each in-flight simulation a private
// arena while consecutive runs on the same slot share one.
package arena

import (
	"math/rand"
	"unsafe"
)

// maxPerTag bounds how many released buffers one tag retains, and how
// many random sources an arena keeps. A system releases at most a few
// dozen buffers per tag (one per cache instance, page table, …) and one
// source per core; beyond that, Release keeps the largest.
const maxPerTag = 64

// buffer is one released slice or map, decomposed so that storing it
// allocates nothing: boxing a []T into an `any` copies the three-word slice
// header to the heap on every Release, which at one Release per structure
// per run added up to a measurable per-run allocation floor. For a slice,
// ptr keeps the backing array reachable (an unsafe.Pointer is a real
// pointer to the GC), and typ holds a nil *T — pointer values box into
// interfaces without allocating — so Slice can still refuse a buffer whose
// element type differs from the request even when two call sites share a
// tag. A map is pointer-shaped too, so typ holds the map itself and Map
// matches it by type the same way.
type buffer struct {
	ptr unsafe.Pointer // first element of the released backing array
	typ any            // (*T)(nil) for a slice, the map[K]V for a map
	cap int            // slice capacity, or the map's size when released
}

// Arena is a tag-keyed free list of recycled slices and maps, plus a
// free list of random sources.
type Arena struct {
	lists map[string][]buffer
	rands []*rand.Rand
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{lists: map[string][]buffer{}}
}

// Slice returns a zeroed []T of length n, reusing the smallest adequate
// buffer previously Released under tag, so repeated same-geometry runs
// pair every request with its own previous buffer. A length-0 request is
// the grow-on-demand pattern (the caller will Extend/append to an unknown
// high-water mark), so it takes the *largest* buffer instead — best-fit
// would hand it the smallest and force a reallocation every run. A nil
// arena — the "pooling off" mode every constructor accepts — or a free
// list with no fitting buffer allocates fresh.
func Slice[T any](a *Arena, tag string, n int) []T {
	b, reused := take[T](a, tag, n)
	if reused {
		clear(b)
	}
	return b
}

// Reclaim is Slice without the zeroing: a reused buffer comes back with
// the elements it was released with, and any beyond them zero. It is for
// elements that own arrays worth keeping — a device's calendars keep
// their gap arrays, each at its own index — and the caller must reset
// every element before use. Everywhere else, use Slice.
func Reclaim[T any](a *Arena, tag string, n int) []T {
	b, _ := take[T](a, tag, n)
	return b
}

// take hands out the buffer Slice and Reclaim select, as it was released,
// or a fresh one; reused reports which.
func take[T any](a *Arena, tag string, n int) (b []T, reused bool) {
	if a == nil {
		return make([]T, n), false
	}
	free := a.lists[tag]
	best := -1
	for i := range free {
		if free[i].cap < n {
			continue
		}
		if best >= 0 {
			if n == 0 && free[i].cap <= free[best].cap {
				continue
			}
			if n > 0 && free[i].cap >= free[best].cap {
				continue
			}
		}
		if _, ok := free[i].typ.(*T); ok {
			best = i
		}
	}
	if best < 0 {
		return isolated[T](n), false
	}
	b = unsafe.Slice((*T)(free[best].ptr), free[best].cap)
	free[best] = free[len(free)-1]
	a.lists[tag] = free[:len(free)-1]
	return b[:n], true
}

// cacheLine is the unit of false sharing on the hosts this runs on.
const cacheLine = 64

// isolated returns a new zeroed []T of length n for an arena. A buffer
// under a page gets a line of padding on either side, outside the slice,
// so it shares no cache line with another allocation. Pooled memory
// outlives the run that allocated it, and the experiment Runner's worker
// slots run on different cores at once: two slots' small buffers packed
// into one line would be written from both cores on every access (false
// sharing; a two-worker sweep measured ~7% more CPU without the padding).
// Larger buffers span many lines and go unpadded, and so do empty ones,
// which grow by append.
func isolated[T any](n int) []T {
	sz := unsafe.Sizeof(*new(T))
	if n == 0 || sz == 0 || uintptr(n)*sz >= 4096 {
		return make([]T, n)
	}
	pad := int((cacheLine + sz - 1) / sz)
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
}

// Release hands s back for future Slice and Reclaim calls under tag. The
// caller must not touch s afterwards. A nil arena or a capacity-less slice
// is a no-op; a full free list keeps the largest buffers.
func Release[T any](a *Arena, tag string, s []T) {
	if a == nil || cap(s) == 0 {
		return
	}
	a.put(tag, buffer{ptr: unsafe.Pointer(unsafe.SliceData(s[:cap(s)])), typ: (*T)(nil), cap: cap(s)})
}

// Map returns an empty map[K]V, reusing the largest map previously released
// under tag. A map grows on demand, like a length-0 Slice request, and
// clear keeps a map's storage, so a recycled map regrows to its previous
// size without allocating. A nil arena or a free list with no map of the
// type makes a new one.
func Map[K comparable, V any](a *Arena, tag string) map[K]V {
	if a == nil {
		return map[K]V{}
	}
	free := a.lists[tag]
	best := -1
	for i := range free {
		if _, ok := free[i].typ.(map[K]V); ok && (best < 0 || free[i].cap > free[best].cap) {
			best = i
		}
	}
	if best < 0 {
		return map[K]V{}
	}
	m := free[best].typ.(map[K]V)
	free[best] = free[len(free)-1]
	a.lists[tag] = free[:len(free)-1]
	return m
}

// ReleaseMap empties m and hands it back for future Map calls under tag.
// The caller must not touch m afterwards. A nil arena or a nil map is a
// no-op.
func ReleaseMap[K comparable, V any](a *Arena, tag string, m map[K]V) {
	if a == nil || m == nil {
		return
	}
	b := buffer{typ: m, cap: len(m)}
	clear(m)
	a.put(tag, b)
}

// Alloc returns a pointer to a zeroed T, reusing a value handed back under
// tag with Free: the per-structure headers of a system (a node, a device,
// a TLB) recycle like its arrays. A nil arena allocates normally.
func Alloc[T any](a *Arena, tag string) *T {
	return &Slice[T](a, tag, 1)[0]
}

// Free zeroes *p, so a released header keeps nothing of its run reachable,
// and hands it back for future Alloc calls under tag. The caller must not
// touch *p afterwards. A nil arena is a no-op.
func Free[T any](a *Arena, tag string, p *T) {
	if a == nil || p == nil {
		return
	}
	var zero T
	*p = zero
	Release(a, tag, unsafe.Slice(p, 1))
}

// Rand returns a generator in the state rand.New(rand.NewSource(seed))
// starts in, reusing one handed back with ReleaseRand: re-seeding restarts
// a source's stream exactly, so a recycled generator draws the same values
// as a fresh one, without the ~5KB of source state a new one allocates. A
// nil arena allocates normally.
func Rand(a *Arena, seed int64) *rand.Rand {
	if a == nil || len(a.rands) == 0 {
		return rand.New(rand.NewSource(seed))
	}
	r := a.rands[len(a.rands)-1]
	a.rands = a.rands[:len(a.rands)-1]
	r.Seed(seed)
	return r
}

// ReleaseRand hands r, which must come from Rand, back for future Rand
// calls. The caller must not use r afterwards. A nil arena or a nil r is a
// no-op, and so is a release beyond maxPerTag retained generators.
func ReleaseRand(a *Arena, r *rand.Rand) {
	if a == nil || r == nil || len(a.rands) >= maxPerTag {
		return
	}
	a.rands = append(a.rands, r)
}

// put adds b to tag's free list; a full list keeps the largest buffers.
func (a *Arena) put(tag string, b buffer) {
	free := a.lists[tag]
	if len(free) < maxPerTag {
		a.lists[tag] = append(free, b)
		return
	}
	smallest := 0
	for i := range free {
		if free[i].cap < free[smallest].cap {
			smallest = i
		}
	}
	if free[smallest].cap < b.cap {
		free[smallest] = b
	}
}

// Extend grows s to length n, zeroing the newly exposed elements. It
// extends in place when capacity allows — the path a recycled buffer's
// regrowth takes — and appends zeroes otherwise. n below len(s) is a
// no-op: Extend never discards live elements.
func Extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	return append(s, make([]T, n-len(s))...)
}
