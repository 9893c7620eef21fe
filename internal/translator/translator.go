// Package translator implements DeACT's FAM translator (Figure 7): a unit
// in the node's memory controller that maps node-physical addresses to FAM
// addresses using an *unverified* FAM translation cache resident in the
// node's local DRAM (1MB, 4-way, 64B-line = 4 entries per set), plus the
// outstanding-mapping list that converts FAM-tagged responses back to node
// addresses.
//
// The translator deliberately performs no access control: translations
// cached in node DRAM are untrusted, and every FAM access it emits is vetted
// by the off-node STU (the V-flag protocol of §III-C). Security tests
// corrupt this cache on purpose and check that the STU still blocks the
// access.
//
// Invariants: Lookup/Update/ReserveSlot allocate nothing in steady state
// (one flat line array, fixed slot ring), random replacement draws from a
// per-translator seeded RNG (deterministic for a fixed seed), and the
// line array recycles through internal/arena across runs.
package translator

import (
	"fmt"
	"math/rand"

	"deact/internal/addr"
	"deact/internal/arena"
	"deact/internal/memdev"
	"deact/internal/sim"
)

// EntriesPerLine is how many (node page, FAM page) mappings fit one 64B
// line: 104 bits per entry (52b tag + 52b value), 4 per access (§III-C).
const EntriesPerLine = 4

// Config sizes the translator.
type Config struct {
	// CacheBytes is the FAM translation cache size in local DRAM (1MB in
	// the paper).
	CacheBytes uint64
	// CacheBase is the DRAM address where the cache region starts (the
	// node reserves this region; the OS must not allocate it).
	CacheBase addr.NPAddr
	// Outstanding is the outstanding-mapping-list depth (128 in Table II).
	Outstanding int
	// TagMatchTime is the comparator+mux time after the DRAM line arrives
	// (one cycle; the four comparators run concurrently, Figure 7b).
	TagMatchTime sim.Time
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CacheBytes == 0 || c.CacheBytes%addr.BlockSize != 0:
		return fmt.Errorf("translator: CacheBytes %d must be a positive multiple of 64", c.CacheBytes)
	case c.Outstanding <= 0:
		return fmt.Errorf("translator: Outstanding must be positive")
	}
	return nil
}

// Stats aggregates translator activity.
type Stats struct {
	Hits         uint64 // FAM translation cache hits (Figure 10's DeACT series)
	Misses       uint64
	DRAMReads    uint64 // translation-cache line reads
	DRAMWrites   uint64 // translation-cache line updates
	Invalidates  uint64
	SlotStallsPS sim.Time // time spent waiting for an outstanding-list slot
}

// entry is one cached mapping as the host stores it: np1 is the node page
// + 1, with 0 marking an empty or invalidated entry, and fp is the FAM
// page. Both fit 32 bits because addr.Layout.Validate bounds every node
// and FAM page number below addr.MaxPages, so the modelled 104-bit entry
// takes 8 host bytes.
type entry struct {
	np1 uint32
	fp  uint32
}

// key returns the np1 value an entry caching np holds.
func key(np addr.NPPage) uint32 { return uint32(np) + 1 }

// Translator is one node's FAM translator.
type Translator struct {
	cfg  Config
	dram *memdev.Device
	rng  *rand.Rand

	sets  uint64
	lines []entry // flat [sets × EntriesPerLine], one backing allocation

	slots   []sim.Time // completion time of the request occupying each slot
	slotIdx int

	stats Stats
}

// New builds a translator whose cache lines live in dram at cfg.CacheBase.
func New(cfg Config, dram *memdev.Device, seed int64) (*Translator, error) {
	return NewInArena(nil, cfg, dram, seed)
}

// NewInArena is New drawing the translator, its line array (8 host
// bytes per entry, half of CacheBytes), the outstanding-list slots and the
// replacement source from a. A nil arena
// allocates normally.
func NewInArena(a *arena.Arena, cfg Config, dram *memdev.Device, seed int64) (*Translator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dram == nil {
		return nil, fmt.Errorf("translator: dram device required")
	}
	sets := cfg.CacheBytes / addr.BlockSize
	t := arena.Alloc[Translator](a, "translator.Translator")
	t.cfg = cfg
	t.dram = dram
	t.rng = arena.Rand(a, seed)
	t.sets = sets
	t.lines = arena.Slice[entry](a, "translator.lines", int(sets*EntriesPerLine))
	t.slots = arena.Slice[sim.Time](a, "translator.slots", cfg.Outstanding)
	return t, nil
}

// Recycle returns the translator, its arrays and its replacement source to
// a for the next run's construction. The translator must not be used
// afterwards.
func (t *Translator) Recycle(a *arena.Arena) {
	arena.Release(a, "translator.lines", t.lines)
	arena.Release(a, "translator.slots", t.slots)
	arena.ReleaseRand(a, t.rng)
	arena.Free(a, "translator.Translator", t)
}

// line returns the 4-entry cache line of a set.
func (t *Translator) line(set uint64) []entry {
	return t.lines[set*EntriesPerLine : (set+1)*EntriesPerLine]
}

// setFor returns the set index for a node page (modulus placement, §III-C).
func (t *Translator) setFor(np addr.NPPage) uint64 { return uint64(np) % t.sets }

// lineAddr returns the DRAM address of a set's 64B line.
func (t *Translator) lineAddr(set uint64) uint64 {
	return uint64(t.cfg.CacheBase) + set*addr.BlockSize
}

// Lookup reads the translation-cache line for np from local DRAM and tag
// matches (Figure 7 a–b). It returns the completion time, the FAM page on a
// hit, and whether it hit.
func (t *Translator) Lookup(now sim.Time, np addr.NPPage) (done sim.Time, fp addr.FPage, hit bool) {
	set := t.setFor(np)
	done = t.dram.Access(now, t.lineAddr(set), false)
	t.stats.DRAMReads++
	done += t.cfg.TagMatchTime
	k := key(np)
	for _, e := range t.line(set) {
		if e.np1 == k {
			t.stats.Hits++
			return done, addr.FPage(e.fp), true
		}
	}
	t.stats.Misses++
	return done, 0, false
}

// Update installs np → fp after a mapping response from the STU (Figure 6
// step 5): the 64B line is read, one of its four entries replaced at
// random, and the line written back (§III-C: random replacement avoids
// extra DRAM state traffic).
func (t *Translator) Update(now sim.Time, np addr.NPPage, fp addr.FPage) (done sim.Time) {
	set := t.setFor(np)
	done = t.dram.Access(now, t.lineAddr(set), false)
	t.stats.DRAMReads++
	line := t.line(set)
	k := key(np)
	slot := -1
	for i, e := range line {
		if e.np1 == k {
			slot = i
			break
		}
		if e.np1 == 0 && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = t.rng.Intn(EntriesPerLine)
	}
	line[slot] = entry{np1: k, fp: uint32(fp)}
	done = t.dram.Access(done, t.lineAddr(set), true)
	t.stats.DRAMWrites++
	return done
}

// ReserveSlot claims an outstanding-mapping-list slot for a request whose
// response will arrive at completion. If all slots are occupied the request
// stalls until one frees (the 128-request limit of Table II). It returns
// the time at which the request may proceed.
func (t *Translator) ReserveSlot(now sim.Time, completion func(start sim.Time) sim.Time) sim.Time {
	// Round-robin over slots approximates "wait for the earliest free".
	s := &t.slots[t.slotIdx]
	t.slotIdx = (t.slotIdx + 1) % len(t.slots)
	start := now
	if *s > start {
		t.stats.SlotStallsPS += *s - start
		start = *s
	}
	*s = completion(start)
	return start
}

// Invalidate drops np's cached translation if present (single-page
// system-level shootdown).
func (t *Translator) Invalidate(np addr.NPPage) bool {
	line := t.line(t.setFor(np))
	k := key(np)
	for i, e := range line {
		if e.np1 == k {
			line[i].np1 = 0
			t.stats.Invalidates++
			return true
		}
	}
	return false
}

// InvalidateAll clears the whole translation cache (job migration, §VI:
// "excess DRAM writes to invalidate system-level mappings"). It returns the
// number of lines that held valid entries, which the caller converts to
// DRAM write traffic.
func (t *Translator) InvalidateAll() (dirtyLines uint64) {
	for set := uint64(0); set < t.sets; set++ {
		line := t.line(set)
		touched := false
		for i := range line {
			if line[i].np1 != 0 {
				line[i].np1 = 0
				touched = true
			}
		}
		if touched {
			dirtyLines++
			t.stats.Invalidates++
		}
	}
	return dirtyLines
}

// Corrupt forges the cached translation for np to point at fp, bypassing
// the STU-mediated update path. It exists for security testing: DeACT's
// threat model says the node (and thus this cache) is untrusted, and the
// STU must catch whatever comes out of it.
func (t *Translator) Corrupt(np addr.NPPage, fp addr.FPage) {
	line := t.line(t.setFor(np))
	k := key(np)
	for i, e := range line {
		if e.np1 == k {
			line[i].fp = uint32(fp)
			return
		}
	}
	line[t.rng.Intn(EntriesPerLine)] = entry{np1: k, fp: uint32(fp)}
}

// Stats returns a copy of the counters.
func (t *Translator) Stats() Stats { return t.stats }

// ResetStats zeroes the counters; the cache contents stay.
func (t *Translator) ResetStats() { t.stats = Stats{} }

// Sets returns the number of cache sets (diagnostics).
func (t *Translator) Sets() uint64 { return t.sets }
