package translator

import (
	"math/rand"
	"testing"

	"deact/internal/addr"
	"deact/internal/pagetable"
	"deact/internal/sim"
)

// refEntry is the translator's former 24-byte entry: full-width page
// numbers and an explicit valid flag.
type refEntry struct {
	np    addr.NPPage
	fp    addr.FPage
	valid bool
}

// refTranslator is the unpacked reference the packed entries are checked
// against: the same set mapping, DRAM charging, replacement draws and
// counters, over refEntry lines.
type refTranslator struct {
	t     *Translator // supplies the DRAM device, geometry and random source
	lines []refEntry
}

func newRef(t *testing.T, seed int64) *refTranslator {
	t.Helper()
	tr, err := New(cfg(), dram(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refTranslator{t: tr, lines: make([]refEntry, tr.sets*EntriesPerLine)}
}

func (r *refTranslator) line(np addr.NPPage) (uint64, []refEntry) {
	set := r.t.setFor(np)
	return set, r.lines[set*EntriesPerLine : (set+1)*EntriesPerLine]
}

func (r *refTranslator) Lookup(now sim.Time, np addr.NPPage) (sim.Time, addr.FPage, bool) {
	set, line := r.line(np)
	done := r.t.dram.Access(now, r.t.lineAddr(set), false) + r.t.cfg.TagMatchTime
	r.t.stats.DRAMReads++
	for _, e := range line {
		if e.valid && e.np == np {
			r.t.stats.Hits++
			return done, e.fp, true
		}
	}
	r.t.stats.Misses++
	return done, 0, false
}

func (r *refTranslator) Update(now sim.Time, np addr.NPPage, fp addr.FPage) sim.Time {
	set, line := r.line(np)
	done := r.t.dram.Access(now, r.t.lineAddr(set), false)
	r.t.stats.DRAMReads++
	slot := -1
	for i, e := range line {
		if e.valid && e.np == np {
			slot = i
			break
		}
		if !e.valid && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = r.t.rng.Intn(EntriesPerLine)
	}
	line[slot] = refEntry{np: np, fp: fp, valid: true}
	r.t.stats.DRAMWrites++
	return r.t.dram.Access(done, r.t.lineAddr(set), true)
}

func (r *refTranslator) Invalidate(np addr.NPPage) bool {
	_, line := r.line(np)
	for i, e := range line {
		if e.valid && e.np == np {
			line[i].valid = false
			r.t.stats.Invalidates++
			return true
		}
	}
	return false
}

func (r *refTranslator) InvalidateAll() (dirty uint64) {
	for set := uint64(0); set < r.t.sets; set++ {
		touched := false
		for i := range r.lines[set*EntriesPerLine : (set+1)*EntriesPerLine] {
			e := &r.lines[set*EntriesPerLine+uint64(i)]
			if e.valid {
				e.valid, touched = false, true
			}
		}
		if touched {
			dirty++
			r.t.stats.Invalidates++
		}
	}
	return dirty
}

func (r *refTranslator) Corrupt(np addr.NPPage, fp addr.FPage) {
	_, line := r.line(np)
	for i, e := range line {
		if e.valid && e.np == np {
			line[i].fp = fp
			return
		}
	}
	line[r.t.rng.Intn(EntriesPerLine)] = refEntry{np: np, fp: fp, valid: true}
}

// TestPackedEntriesMatchReference drives the packed translator and the
// 24-byte-entry reference with the same random operation stream. Node
// pages crowd a few sets so lines fill, replace at random and see
// invalidated slots reused; they include 0 and pagetable.MaxValue, the
// extremes of the packed np1 field, and FAM pages span the 32-bit range.
// Every call must return the same times, hits and FAM pages, and the two
// must agree on counters and random draws throughout.
func TestPackedEntriesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := New(cfg(), dram(), seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(t, seed)
		rng := rand.New(rand.NewSource(seed))
		sets := tr.Sets()
		page := func() addr.NPPage {
			switch rng.Intn(8) {
			case 0:
				return pagetable.MaxValue - addr.NPPage(rng.Intn(3)*int(sets))
			case 1:
				return addr.NPPage(rng.Intn(3) * int(sets))
			default:
				// Six pages per set in eight sets: four-way lines overflow.
				return addr.NPPage(uint64(rng.Intn(8)) + uint64(rng.Intn(6))*sets + 5)
			}
		}
		fpage := func() addr.FPage {
			if rng.Intn(4) == 0 {
				return pagetable.MaxValue - addr.FPage(rng.Intn(4))
			}
			return addr.FPage(rng.Intn(1 << 20))
		}
		var now sim.Time
		for step := 0; step < 20_000; step++ {
			now += sim.NS(50)
			np := page()
			switch op := rng.Intn(100); {
			case op < 50:
				d1, f1, h1 := tr.Lookup(now, np)
				d2, f2, h2 := ref.Lookup(now, np)
				if d1 != d2 || f1 != f2 || h1 != h2 {
					t.Fatalf("seed %d step %d: Lookup(%#x) = (%v,%#x,%v), reference (%v,%#x,%v)",
						seed, step, np, d1, f1, h1, d2, f2, h2)
				}
			case op < 85:
				fp := fpage()
				if d1, d2 := tr.Update(now, np, fp), ref.Update(now, np, fp); d1 != d2 {
					t.Fatalf("seed %d step %d: Update(%#x) done %v, reference %v", seed, step, np, d1, d2)
				}
			case op < 95:
				if g1, g2 := tr.Invalidate(np), ref.Invalidate(np); g1 != g2 {
					t.Fatalf("seed %d step %d: Invalidate(%#x) = %v, reference %v", seed, step, np, g1, g2)
				}
			case op < 99:
				fp := fpage()
				tr.Corrupt(np, fp)
				ref.Corrupt(np, fp)
			default:
				if g1, g2 := tr.InvalidateAll(), ref.InvalidateAll(); g1 != g2 {
					t.Fatalf("seed %d step %d: InvalidateAll = %d, reference %d", seed, step, g1, g2)
				}
			}
			if tr.Stats() != ref.t.Stats() {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, tr.Stats(), ref.t.Stats())
			}
		}
		if a, b := tr.rng.Int63(), ref.t.rng.Int63(); a != b {
			t.Fatalf("seed %d: replacement sources diverged (%d vs %d)", seed, a, b)
		}
		if s := tr.Stats(); s.Hits == 0 || s.Misses == 0 || s.Invalidates == 0 {
			t.Fatalf("seed %d: stream missed a path: %+v", seed, s)
		}
	}
}

// TestMaxNodePageRoundTrips: the largest node page a layout can name,
// pagetable.MaxValue (2^32 − 2), packs to np1 = 2^32 − 1 and comes back
// whole, beside page 0 of the same set, and invalidates cleanly.
func TestMaxNodePageRoundTrips(t *testing.T) {
	tr := newTr(t)
	const top = addr.NPPage(pagetable.MaxValue)
	low := top % addr.NPPage(tr.Sets()) // same set, smallest page
	tr.Update(0, top, pagetable.MaxValue)
	tr.Update(0, low, 1)
	if _, fp, hit := tr.Lookup(0, top); !hit || fp != pagetable.MaxValue {
		t.Fatalf("Lookup(MaxValue) = (%#x,%v), want (%#x,true)", fp, hit, uint64(pagetable.MaxValue))
	}
	if _, fp, hit := tr.Lookup(0, low); !hit || fp != 1 {
		t.Fatalf("Lookup(%#x) = (%#x,%v), want (1,true)", low, fp, hit)
	}
	if !tr.Invalidate(top) {
		t.Fatal("Invalidate(MaxValue) missed")
	}
	if _, _, hit := tr.Lookup(0, top); hit {
		t.Fatal("MaxValue survived its invalidation")
	}
	if _, _, hit := tr.Lookup(0, low); !hit {
		t.Fatal("invalidating MaxValue dropped its set neighbour")
	}
}
