package translator

import (
	"testing"

	"deact/internal/addr"
	"deact/internal/memdev"
	"deact/internal/sim"
)

func dram() *memdev.Device {
	return memdev.New(memdev.Config{
		Name: "dram", Banks: 8,
		ReadLatency: sim.NS(60), WriteLatency: sim.NS(60), PortLatency: sim.NS(1),
	})
}

func cfg() Config {
	return Config{
		CacheBytes:   1 << 20, // 1MB as in the paper
		CacheBase:    addr.NPAddr((1 << 30) - (1 << 20)),
		Outstanding:  128,
		TagMatchTime: sim.NS(1) / 2, // one 2GHz cycle
	}
}

func newTr(t *testing.T) *Translator {
	t.Helper()
	tr, err := New(cfg(), dram(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{CacheBytes: 0, Outstanding: 1}).Validate(); err == nil {
		t.Fatal("zero cache accepted")
	}
	if err := (Config{CacheBytes: 63, Outstanding: 1}).Validate(); err == nil {
		t.Fatal("non-multiple cache accepted")
	}
	if err := (Config{CacheBytes: 64, Outstanding: 0}).Validate(); err == nil {
		t.Fatal("zero outstanding accepted")
	}
	if _, err := New(cfg(), nil, 1); err == nil {
		t.Fatal("nil dram accepted")
	}
}

func TestGeometry(t *testing.T) {
	tr := newTr(t)
	if tr.Sets() != (1<<20)/64 {
		t.Fatalf("sets = %d", tr.Sets())
	}
}

func TestMissThenUpdateThenHit(t *testing.T) {
	tr := newTr(t)
	done, _, hit := tr.Lookup(0, 0x40000)
	if hit {
		t.Fatal("cold lookup hit")
	}
	// One DRAM read (61ns) + tag match (0.5ns).
	if done < sim.NS(61) {
		t.Fatalf("lookup too fast: %v", done)
	}
	upDone := tr.Update(done, 0x40000, 777)
	if upDone <= done {
		t.Fatal("update took no time")
	}
	st := tr.Stats()
	if st.DRAMReads != 2 || st.DRAMWrites != 1 {
		t.Fatalf("update must read-modify-write: %+v", st)
	}
	_, fp, hit := tr.Lookup(upDone, 0x40000)
	if !hit || fp != 777 {
		t.Fatalf("lookup after update = (%v,%v)", fp, hit)
	}
	if st := tr.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestUpdateOverwritesExisting(t *testing.T) {
	tr := newTr(t)
	tr.Update(0, 7, 100)
	tr.Update(0, 7, 200)
	_, fp, hit := tr.Lookup(0, 7)
	if !hit || fp != 200 {
		t.Fatalf("overwrite failed: (%v,%v)", fp, hit)
	}
}

func TestSetConflictEvictsWithinFourWays(t *testing.T) {
	tr := newTr(t)
	sets := tr.Sets()
	// Five node pages mapping to the same set: one must be evicted.
	var pages []addr.NPPage
	for i := 0; i < 5; i++ {
		pages = append(pages, addr.NPPage(uint64(i)*sets+3))
	}
	for i, np := range pages {
		tr.Update(0, np, addr.FPage(i+1))
	}
	hits := 0
	for _, np := range pages {
		if _, _, hit := tr.Lookup(0, np); hit {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("resident after 5 conflicting updates = %d, want 4 (random replacement)", hits)
	}
}

func TestInvalidate(t *testing.T) {
	tr := newTr(t)
	tr.Update(0, 9, 90)
	if !tr.Invalidate(9) {
		t.Fatal("invalidate missed")
	}
	if _, _, hit := tr.Lookup(0, 9); hit {
		t.Fatal("entry survived invalidate")
	}
	if tr.Invalidate(9) {
		t.Fatal("double invalidate reported success")
	}
}

func TestInvalidateAllCountsDirtyLines(t *testing.T) {
	tr := newTr(t)
	sets := tr.Sets()
	tr.Update(0, 1, 1)
	tr.Update(0, 2, 2)
	tr.Update(0, addr.NPPage(sets+1), 3) // same set as np=1
	if got := tr.InvalidateAll(); got != 2 {
		t.Fatalf("dirty lines = %d, want 2", got)
	}
	if _, _, hit := tr.Lookup(0, 1); hit {
		t.Fatal("entry survived InvalidateAll")
	}
}

func TestCorruptForgesTranslation(t *testing.T) {
	tr := newTr(t)
	tr.Update(0, 5, 50)
	tr.Corrupt(5, 666)
	_, fp, hit := tr.Lookup(0, 5)
	if !hit || fp != 666 {
		t.Fatalf("corrupt did not forge: (%v,%v)", fp, hit)
	}
	// Corrupting an absent page installs it.
	tr.Corrupt(6, 777)
	if _, fp, hit := tr.Lookup(0, 6); !hit || fp != 777 {
		t.Fatal("corrupt of absent entry failed")
	}
}

func TestOutstandingSlotsStall(t *testing.T) {
	c := cfg()
	c.Outstanding = 2
	tr, err := New(c, dram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two requests occupy both slots until t=1000ns.
	for i := 0; i < 2; i++ {
		start := tr.ReserveSlot(0, func(s sim.Time) sim.Time { return sim.US(1) })
		if start != 0 {
			t.Fatalf("slot %d stalled with free list", i)
		}
	}
	// Third must wait for a slot.
	start := tr.ReserveSlot(0, func(s sim.Time) sim.Time { return s + sim.NS(10) })
	if start != sim.US(1) {
		t.Fatalf("third request started at %v, want 1µs", start)
	}
	if tr.Stats().SlotStallsPS == 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestLookupChargesDRAMQueueing(t *testing.T) {
	tr := newTr(t)
	// Two concurrent lookups to the same set must serialize on the DRAM bank.
	d1, _, _ := tr.Lookup(0, 1)
	d2, _, _ := tr.Lookup(0, 1)
	if d2 <= d1 {
		t.Fatalf("concurrent lookups did not queue: %v then %v", d1, d2)
	}
}

// stepClock is a settable sim.Clock for binding the DRAM calendars.
type stepClock struct{ now sim.Time }

func (c *stepClock) Now() sim.Time { return c.now }

// TestHotPathAllocatesNothing: once warm, the translator's per-request
// calls — ReserveSlot, Lookup and Update — allocate nothing, whether the
// outstanding list has a free slot or stalls.
func TestHotPathAllocatesNothing(t *testing.T) {
	d := dram()
	clk := &stepClock{}
	d.Bind(clk)
	tr, err := New(cfg(), d, 5)
	if err != nil {
		t.Fatal(err)
	}
	stream := addr.NPPage(1 << 20)
	// One request per 100ns keeps the DRAM banks below saturation, as the
	// cores' outstanding-request limit does in a real run. Even requests
	// revisit 64 hot pages (hits), odd ones stream through new pages
	// (misses and Updates).
	batch := func() {
		for i := 0; i < 2000; i++ {
			clk.now += sim.NS(100)
			np := addr.NPPage(i % 64)
			if i%2 == 1 {
				stream++
				np = stream
			}
			start := tr.ReserveSlot(clk.now, func(s sim.Time) sim.Time { return s + sim.NS(400) })
			done, _, hit := tr.Lookup(start, np)
			if !hit {
				tr.Update(done, np, addr.FPage(np)+1)
			}
		}
	}
	batch()
	if n := testing.AllocsPerRun(5, batch); n != 0 {
		t.Fatalf("warm translator allocated %.0f times per 2000 requests, want 0", n)
	}
	if s := tr.Stats(); s.Hits < 5000 || s.Misses < 5000 {
		t.Fatalf("batches do not exercise both hits and misses: %+v", s)
	}
	stall := func() {
		for i := 0; i < 1000; i++ {
			tr.ReserveSlot(clk.now, func(s sim.Time) sim.Time { return s + sim.US(1) })
		}
	}
	if n := testing.AllocsPerRun(5, stall); n != 0 {
		t.Fatalf("stalling ReserveSlot allocated %.0f times per 1000 calls, want 0", n)
	}
	if tr.Stats().SlotStallsPS == 0 {
		t.Fatal("stall loop never stalled")
	}
}
