package memdev

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deact/internal/sim"
)

func nvmConfig() Config {
	return Config{
		Name:         "fam-nvm",
		Banks:        32,
		ReadLatency:  sim.NS(60),
		WriteLatency: sim.NS(150),
		PortLatency:  sim.NS(2),
	}
}

func TestValidate(t *testing.T) {
	if err := nvmConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []Config{
		{Name: "x", Banks: 0, ReadLatency: 1, WriteLatency: 1},
		{Name: "x", Banks: 1, ReadLatency: 0, WriteLatency: 1},
		{Name: "x", Banks: 1, ReadLatency: 1, WriteLatency: 0},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestReadWriteLatency(t *testing.T) {
	d := New(nvmConfig())
	done := d.Access(0, 0, false)
	if done != sim.NS(62) { // 2ns port + 60ns read
		t.Fatalf("read done = %v, want 62ns", done)
	}
	done = d.Access(sim.NS(1000), 64, true)
	if done != sim.NS(1152) { // port + 150ns write
		t.Fatalf("write done = %v, want 1152ns", done)
	}
	if d.Reads() != 1 || d.Writes() != 1 || d.Accesses() != 2 {
		t.Fatalf("counters wrong: r=%d w=%d", d.Reads(), d.Writes())
	}
}

func TestBankConflictSerializes(t *testing.T) {
	cfg := nvmConfig()
	cfg.PortLatency = 0
	d := New(cfg)
	// Same block → same bank → second read queues behind the first.
	d1 := d.Access(0, 0, false)
	d2 := d.Access(0, 0, false)
	if d2 != d1+sim.NS(60) {
		t.Fatalf("bank conflict not serialized: d1=%v d2=%v", d1, d2)
	}
	// Different blocks → different banks → both finish at the same time.
	d3 := d.Access(sim.NS(10000), 1<<6, false)
	d4 := d.Access(sim.NS(10000), 2<<6, false)
	if d3 != d4 {
		t.Fatalf("independent banks serialized: d3=%v d4=%v", d3, d4)
	}
}

func TestBlockInterleaving(t *testing.T) {
	cfg := nvmConfig()
	cfg.Banks = 4
	cfg.PortLatency = 0
	d := New(cfg)
	// Blocks 0..3 map to banks 0..3; block 4 wraps to bank 0.
	t0 := d.Access(0, 0, false)
	t4 := d.Access(0, 4<<6, false)
	if t4 != t0+sim.NS(60) {
		t.Fatalf("block 4 should conflict with block 0: t0=%v t4=%v", t0, t4)
	}
}

func TestPortBoundsThroughput(t *testing.T) {
	cfg := nvmConfig()
	cfg.PortLatency = sim.NS(10)
	d := New(cfg)
	// 8 simultaneous requests to 8 different banks: issue is serialized by
	// the 10ns port, so completions are staggered 10ns apart.
	var last sim.Time
	for i := 0; i < 8; i++ {
		done := d.Access(0, uint64(i)<<6, false)
		want := sim.NS(uint64(10*(i+1) + 60))
		if done != want {
			t.Fatalf("req %d done=%v want %v", i, done, want)
		}
		last = done
	}
	if last != sim.NS(140) {
		t.Fatalf("last completion %v, want 140ns", last)
	}
}

func TestDeviceAccessors(t *testing.T) {
	d := New(nvmConfig())
	if d.Name() != "fam-nvm" || d.Banks() != 32 {
		t.Fatal("accessors wrong")
	}
}

// Property: completion time is never before arrival plus the minimum
// service, and counters match the number of calls.
func TestAccessMonotoneQuick(t *testing.T) {
	d := New(nvmConfig())
	var now sim.Time
	var n uint64
	f := func(gap uint16, a uint64, w bool) bool {
		now += sim.Time(gap)
		min := d.cfg.ReadLatency
		if w {
			min = d.cfg.WriteLatency
		}
		done := d.Access(now, a, w)
		n++
		return done >= now+min && d.Accesses() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLinkPacedPortNeverWaits holds the argument behind AccessSpaced. A
// port calendar fed arrivals the way famRT feeds the FAM device — a grant
// on one shared link plus a fixed latency, issued out of order by access
// chains that start anywhere in a window ahead of the engine clock —
// grants every request at its arrival whenever the link's packet time is
// at least the port's service time, equality included. So Access and
// AccessSpaced complete every request at the same time. With a packet
// time below the port's, the same stream does queue at the port, so the
// check is not vacuous.
func TestLinkPacedPortNeverWaits(t *testing.T) {
	const port = 2 * sim.Nanosecond
	for _, packet := range []sim.Time{port, 50 * sim.Nanosecond, port - 1} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			clk := &benchClock{}
			var link, calendar sim.Server
			link.Bind(clk)
			calendar.Bind(clk)
			cfg := nvmConfig()
			cfg.PortLatency = port
			queued, spaced := New(cfg), New(cfg)
			queued.Bind(clk)
			spaced.Bind(clk)
			waits := 0
			for i := 0; i < 20000; i++ {
				// Offered load about half the link's capacity.
				clk.now += sim.Time(rng.Intn(int(4 * packet)))
				// A chain issues its request up to 5µs ahead of the clock.
				issue := clk.now + sim.Time(rng.Intn(int(5*sim.Microsecond)))
				_, sent := link.Acquire(issue, packet)
				arrive := sent + 500*sim.Nanosecond
				if start, _ := calendar.Acquire(arrive, port); start != arrive {
					waits++
				}
				a, w := uint64(rng.Intn(1<<20))<<6, rng.Intn(3) == 0
				if packet >= port {
					if q, s := queued.Access(arrive, a, w), spaced.AccessSpaced(arrive, a, w); q != s {
						t.Fatalf("packet %d seed %d req %d: Access done %d, AccessSpaced done %d", packet, seed, i, q, s)
					}
				}
			}
			switch {
			case packet >= port && waits != 0:
				t.Fatalf("packet %d seed %d: %d of 20000 link-paced arrivals waited at the port", packet, seed, waits)
			case packet < port && waits == 0:
				t.Fatalf("packet %d seed %d: no arrival waited; the stream does not exercise the port", packet, seed)
			}
		}
	}
}
