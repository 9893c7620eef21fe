// Package arena recycles the large backing arrays a simulated system is
// built from, so a sweep's hundreds of runs reuse one set of allocations
// instead of handing ~2.5MB of zeroed memory to the garbage collector per
// run. Construction-time consumers (cache line arrays, translator lines,
// page-table arenas, broker owner tables, ACM chunks) request buffers with
// Slice and hand them back with Release once the run's System is torn down;
// the next run's identical geometry then reuses them byte-for-byte.
//
// Buffers are keyed by a per-call-site tag and matched best-fit by
// capacity, so a sweep that varies one structure's geometry still recycles
// every other structure. Slice zeroes what it returns, which is the whole
// determinism story: a recycled system is bit-identical to a freshly
// allocated one, and the golden-report CI job holds that property.
//
// An Arena is not safe for concurrent use. The experiment Runner keeps one
// arena per worker-pool slot, giving each in-flight simulation a private
// arena while consecutive runs on the same slot share one.
package arena

import "unsafe"

// maxPerTag bounds how many released buffers one tag retains. A system
// releases at most a few dozen buffers per tag (one per cache instance,
// page table, …); beyond that, Release keeps the largest.
const maxPerTag = 64

// buffer is one released slice, decomposed so that storing it allocates
// nothing: boxing a []T into an `any` copies the three-word slice header to
// the heap on every Release, which at one Release per structure per run
// added up to a measurable per-run allocation floor. ptr keeps the backing
// array reachable (an unsafe.Pointer is a real pointer to the GC), and typ
// holds a nil *T — pointer values box into interfaces without allocating —
// so Slice can still refuse a buffer whose element type differs from the
// request even when two call sites share a tag.
type buffer struct {
	ptr unsafe.Pointer // first element of the released backing array
	typ any            // (*T)(nil): element-type identity for Slice
	cap int
}

// Arena is a tag-keyed free list of recycled slices.
type Arena struct {
	lists map[string][]buffer
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
	if a == nil {
		return make([]T, n)
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
		return make([]T, n)
	}
	b := unsafe.Slice((*T)(free[best].ptr), free[best].cap)
	free[best] = free[len(free)-1]
	a.lists[tag] = free[:len(free)-1]
	b = b[:n]
	clear(b)
	return b
}

// Release hands s back for future Slice calls under tag. The caller must
// not touch s afterwards. A nil arena or a capacity-less slice is a no-op;
// a full free list keeps the largest buffers.
func Release[T any](a *Arena, tag string, s []T) {
	if a == nil || cap(s) == 0 {
		return
	}
	b := buffer{ptr: unsafe.Pointer(unsafe.SliceData(s[:cap(s)])), typ: (*T)(nil), cap: cap(s)}
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
