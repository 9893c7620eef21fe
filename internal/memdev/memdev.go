// Package memdev models the timing of the two memory devices in a DeACT
// system (Table II of the paper):
//
//   - the node-local DRAM (1GB default), and
//   - the fabric-attached NVM pool (16GB, read 60ns / write 150ns, 32 banks,
//     128 outstanding requests).
//
// A device is a set of banks, each a serially occupied sim.Server, fronted
// by a controller port that serializes request issue. Requests are mapped to
// banks by block-interleaving, the common DRAM/NVM layout.
//
// The contention model is batched: each bank (and the port) keeps a tail
// time served in O(1) for in-order arrivals and a small gap calendar for
// out-of-order ones. Bind attaches the engine clock, which lets each
// calendar retire the gaps that closed in the past before its backing
// array grows, so a bank's calendar is sized by its own reachable gaps
// however rarely it is touched.
//
// The FAM device is reached through AccessSpaced, which charges the port
// as a fixed PortLatency delay and books no port calendar. Every FAM
// request crosses the fabric first: it arrives one FabricLatency after its
// grant on the system's single to-FAM link, and that link's grants are
// disjoint PacketTime intervals, so any two arrivals are at least
// PacketTime apart. With PortLatency ≤ PacketTime (core.Config.Validate
// and node.New reject anything else) the port's busy intervals
// [arrival, arrival+PortLatency) never overlap, so a calendar would grant
// every request at its arrival: 0 waits in 2.46 M FAM port acquisitions
// on a default-scale two-node I-FAM sssp run. The node-local DRAM keeps
// its port calendar through Access, because its arrivals do queue (6% of
// them on that run).
package memdev

import (
	"fmt"

	"deact/internal/arena"
	"deact/internal/sim"
)

// Config describes one memory device.
type Config struct {
	// Name is used in error and stats output.
	Name string
	// Banks is the number of independently occupied banks.
	Banks int
	// ReadLatency and WriteLatency are per-access bank service times.
	ReadLatency  sim.Time
	WriteLatency sim.Time
	// PortLatency is the controller front-door occupancy per request. It
	// bounds device throughput the way a limited outstanding-request window
	// does in the real controller.
	PortLatency sim.Time
	// InterleaveShift selects the address bits used for bank selection;
	// block interleaving (6) spreads consecutive 64B blocks across banks.
	InterleaveShift uint
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("memdev %s: banks must be positive", c.Name)
	case c.ReadLatency == 0 || c.WriteLatency == 0:
		return fmt.Errorf("memdev %s: latencies must be non-zero", c.Name)
	}
	return nil
}

// Device is a banked memory device.
type Device struct {
	cfg      Config
	port     sim.Server
	banks    []sim.Server
	bankMask uint64 // len(banks)-1 when a power of two, else 0
	// servers is the arena buffer the calendars came from: the port's
	// slot, then the banks (banks is servers[1:]). The port is copied out
	// of it and back, so Access books a field of the device itself.
	servers []sim.Server
	tag     string // the arena tag servers came from

	reads  uint64
	writes uint64
}

// New builds a device from cfg. It panics on invalid configuration: device
// configs are produced by core.Config validation, so a bad one here is a
// programming error.
func New(cfg Config) *Device {
	return NewInArena(nil, "", cfg)
}

// NewInArena is New drawing the device and its calendars from a. The
// calendars come from, and return to, the free list under tag, each with
// the gap array it grew: devices of different roles (the FAM pool, a
// node's DRAM) see different traffic, and under one tag they would trade
// arrays and regrow. A nil arena allocates normally.
func NewInArena(a *arena.Arena, tag string, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.InterleaveShift == 0 {
		cfg.InterleaveShift = 6
	}
	d := arena.Alloc[Device](a, "memdev.Device")
	d.cfg = cfg
	d.tag = tag
	d.servers = sim.NewServers(a, tag, 1+cfg.Banks)
	d.port, d.banks = d.servers[0], d.servers[1:]
	if n := uint64(cfg.Banks); n&(n-1) == 0 {
		d.bankMask = n - 1
	}
	return d
}

// Recycle returns the device and its calendars, each with its gap array,
// to a for the next run's construction. The device must not be used
// afterwards. A nil arena is a no-op.
func (d *Device) Recycle(a *arena.Arena) {
	if a == nil {
		return
	}
	d.servers[0] = d.port
	sim.RecycleServers(a, d.tag, d.servers)
	arena.Free(a, "memdev.Device", d)
}

// Bind attaches the engine clock to the port and every bank, enabling exact
// retirement of past calendar state (see sim.Clock).
func (d *Device) Bind(c sim.Clock) {
	d.port.Bind(c)
	for i := range d.banks {
		d.banks[i].Bind(c)
	}
}

// bankFor maps an address to a bank by block interleaving.
func (d *Device) bankFor(a uint64) *sim.Server {
	blk := a >> d.cfg.InterleaveShift
	if d.bankMask != 0 {
		return &d.banks[blk&d.bankMask]
	}
	return &d.banks[blk%uint64(len(d.banks))]
}

// Access reserves the controller port and the target bank for one 64B
// request arriving at now, and returns the completion time.
func (d *Device) Access(now sim.Time, a uint64, write bool) sim.Time {
	_, issued := d.port.Acquire(now, d.cfg.PortLatency)
	return d.bank(issued, a, write)
}

// AccessSpaced is Access for a request stream whose arrivals are at least
// PortLatency apart, such as the FAM device's link-paced arrivals: the
// port could never make one wait, so it is charged as a fixed delay and
// its calendar is not booked. Feeding it arrivals closer together than
// PortLatency under-counts port queueing.
func (d *Device) AccessSpaced(now sim.Time, a uint64, write bool) sim.Time {
	return d.bank(now+d.cfg.PortLatency, a, write)
}

// bank books the target bank for a request the port issued at issued and
// returns its completion time.
func (d *Device) bank(issued sim.Time, a uint64, write bool) sim.Time {
	svc := d.cfg.ReadLatency
	if write {
		svc = d.cfg.WriteLatency
		d.writes++
	} else {
		d.reads++
	}
	_, done := d.bankFor(a).Acquire(issued, svc)
	return done
}

// Reads returns the number of read accesses served.
func (d *Device) Reads() uint64 { return d.reads }

// Writes returns the number of write accesses served.
func (d *Device) Writes() uint64 { return d.writes }

// Accesses returns the total number of requests served.
func (d *Device) Accesses() uint64 { return d.reads + d.writes }

// ResetStats zeroes the access counters; bank reservations stay.
func (d *Device) ResetStats() { d.reads, d.writes = 0, 0 }

// PortLatency returns the configured controller port occupancy.
func (d *Device) PortLatency() sim.Time { return d.cfg.PortLatency }

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// Banks returns the configured bank count.
func (d *Device) Banks() int { return len(d.banks) }
