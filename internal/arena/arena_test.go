package arena

import (
	"math/rand"
	"testing"
)

// sameBacking reports whether two slices share a backing array.
func sameBacking(a, b []uint64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

func TestSliceReusesReleasedBuffer(t *testing.T) {
	a := New()
	first := Slice[uint64](a, "t", 100)
	for i := range first {
		first[i] = 7
	}
	Release(a, "t", first)
	second := Slice[uint64](a, "t", 80)
	if !sameBacking(first, second) {
		t.Fatal("released buffer was not reused for a fitting request")
	}
	if len(second) != 80 {
		t.Fatalf("len = %d, want 80", len(second))
	}
	for i, v := range second {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %d", i, v)
		}
	}
	// The buffer is out on loan: a second request must not alias it.
	third := Slice[uint64](a, "t", 80)
	if sameBacking(second, third) {
		t.Fatal("one buffer handed out twice")
	}
}

func TestSliceBestFit(t *testing.T) {
	a := New()
	small := Slice[uint64](a, "t", 10)
	big := Slice[uint64](a, "t", 1000)
	Release(a, "t", big)
	Release(a, "t", small)
	// A small request must take the small buffer, leaving the big one for
	// the big request — otherwise repeated same-geometry runs reallocate.
	gotSmall := Slice[uint64](a, "t", 10)
	gotBig := Slice[uint64](a, "t", 1000)
	if !sameBacking(gotSmall, small) || !sameBacking(gotBig, big) {
		t.Fatal("best-fit matching failed")
	}
}

func TestZeroLengthRequestTakesLargest(t *testing.T) {
	a := New()
	small := Slice[uint64](a, "t", 10)
	big := Slice[uint64](a, "t", 1000)
	Release(a, "t", small)
	Release(a, "t", big)
	// A grow-on-demand consumer (len 0, then Extend/append) must get the
	// biggest capacity on offer, or it reallocates at its high-water mark
	// every run.
	got := Slice[uint64](a, "t", 0)
	if len(got) != 0 || !sameBacking(got, big) {
		t.Fatalf("len-0 request got cap %d, want the cap-%d buffer", cap(got), cap(big))
	}
}

func TestNilArenaAllocates(t *testing.T) {
	s := Slice[uint64](nil, "t", 5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	Release(nil, "t", s) // must not panic
}

func TestTagsAndTypesAreIsolated(t *testing.T) {
	a := New()
	u := Slice[uint64](a, "u", 50)
	Release(a, "u", u)
	if got := Slice[uint64](a, "other", 50); sameBacking(u, got) {
		t.Fatal("buffer crossed tags")
	}
	// Same tag, different element type: must allocate fresh, not panic.
	b := Slice[uint32](a, "u", 10)
	if len(b) != 10 {
		t.Fatalf("len = %d", len(b))
	}
}

func TestReleaseBoundKeepsLargest(t *testing.T) {
	a := New()
	var largest []uint64
	for i := 0; i < maxPerTag+5; i++ {
		s := make([]uint64, 10+i)
		if i == maxPerTag+4 {
			largest = s
		}
		Release(a, "t", s)
	}
	if len(a.lists["t"]) != maxPerTag {
		t.Fatalf("free list length %d, want %d", len(a.lists["t"]), maxPerTag)
	}
	if got := Slice[uint64](a, "t", 10+maxPerTag+4); !sameBacking(got, largest) {
		t.Fatal("largest buffer was evicted")
	}
}

// TestMapRecycling: Map hands back a released map of the same type, empty
// and taking the largest on offer; a different tag or value type gets a
// new map, and releasing a map or Map from a nil arena is harmless.
func TestMapRecycling(t *testing.T) {
	a := New()
	small, big := Map[uint64, uint32](a, "m"), Map[uint64, uint32](a, "m")
	small[1] = 1
	for i := uint64(0); i < 100; i++ {
		big[i] = uint32(i)
	}
	ReleaseMap(a, "m", big)
	ReleaseMap(a, "m", small)
	if len(big) != 0 || len(small) != 0 {
		t.Fatal("released maps were not emptied")
	}
	other := Map[uint64, uint64](a, "m")
	other[7] = 7
	if len(a.lists["m"]) != 2 {
		t.Fatal("Map handed out a map of another value type")
	}
	got := Map[uint64, uint32](a, "m")
	got[5] = 5
	if len(big) != 1 {
		t.Fatal("Map did not take the largest released map")
	}
	if len(Map[uint64, uint32](a, "elsewhere")) != 0 {
		t.Fatal("fresh map not empty")
	}
	ReleaseMap[uint64, uint32](nil, "m", got)
	ReleaseMap[uint64, uint32](a, "m", nil)
	if m := Map[uint64, uint32](nil, "m"); m == nil {
		t.Fatal("nil arena returned a nil map")
	}
}

func TestExtend(t *testing.T) {
	s := make([]uint64, 4, 16)
	s[3] = 9
	// Poison the hidden capacity: Extend must zero what it exposes.
	s[:16][10] = 42
	grown := Extend(s, 12)
	if len(grown) != 12 || &grown[0] != &s[0] {
		t.Fatalf("in-place extend failed: len=%d", len(grown))
	}
	if grown[3] != 9 {
		t.Fatal("live element clobbered")
	}
	for i := 4; i < 12; i++ {
		if grown[i] != 0 {
			t.Fatalf("exposed element %d not zeroed: %d", i, grown[i])
		}
	}
	beyond := Extend(grown, 100)
	if len(beyond) != 100 || beyond[3] != 9 {
		t.Fatal("reallocating extend lost data")
	}
	if shrunk := Extend(beyond, 5); len(shrunk) != 100 {
		t.Fatal("Extend shrank the slice")
	}
}

// TestRandReseedMatchesFresh: a generator handed back and re-seeded draws
// the same first 10,000 values as rand.New(rand.NewSource(seed)), whatever
// it drew before and whichever seed it last had.
func TestRandReseedMatchesFresh(t *testing.T) {
	a := New()
	for _, seed := range []int64{42, 0, -7, 1 << 40, 42} {
		r := Rand(a, seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			// Mix the draw kinds the simulator uses, so any state a
			// previous stream left behind would show.
			var got, want int64
			switch i % 3 {
			case 0:
				got, want = r.Int63(), fresh.Int63()
			case 1:
				got, want = int64(r.Uint64()), int64(fresh.Uint64())
			default:
				got, want = int64(r.Intn(1000)), int64(fresh.Intn(1000))
			}
			if got != want {
				t.Fatalf("seed %d draw %d: recycled %d, fresh %d", seed, i, got, want)
			}
		}
		// Leave the generator mid-stream, then hand it back.
		r.Float64()
		ReleaseRand(a, r)
	}
	if len(a.rands) != 1 {
		t.Fatalf("arena holds %d generators, want the one recycled through every seed", len(a.rands))
	}
}

// TestAllocReusesFreedHeader: Free zeroes a header and Alloc hands the
// same one back.
func TestAllocReusesFreedHeader(t *testing.T) {
	type header struct {
		n int
		p *int
	}
	a := New()
	h := Alloc[header](a, "h")
	h.n, h.p = 7, new(int)
	Free(a, "h", h)
	if *h != (header{}) {
		t.Fatalf("Free left %+v", *h)
	}
	if got := Alloc[header](a, "h"); got != h {
		t.Fatal("Alloc did not reuse the freed header")
	}
	if got := Alloc[header](nil, "h"); got == nil || *got != (header{}) {
		t.Fatal("nil arena Alloc must return a fresh zero value")
	}
}

// TestIsolatedKeepsPaddingOutside: an isolated buffer is exactly n zeroed
// elements with no spare capacity, so neither indexing nor append can
// reach the padding that keeps its cache lines to itself, and a pooled
// Slice that allocates fresh returns one.
func TestIsolatedKeepsPaddingOutside(t *testing.T) {
	for _, n := range []int{1, 3, 100, 1000} {
		b := isolated[uint64](n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(b), cap(b))
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("n=%d: element %d is %d", n, i, v)
			}
		}
	}
	a := New()
	if s := Slice[uint64](a, "t", 5); cap(s) != 5 {
		t.Fatalf("pooled fresh Slice has cap %d, want 5", cap(s))
	}
}
