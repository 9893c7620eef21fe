// Package fabric models the memory-semantic system interconnect (Gen-Z /
// CXL-like) between compute nodes and the FAM pool: a fixed one-way
// propagation latency (500ns default, Table II) plus shared per-direction
// serialization so that traffic from multiple nodes contends (Figure 16's
// effect).
//
// The two directions are independent links. Modeling them as one shared
// resource would make a response packet's reservation (which happens ~a
// round trip after its request) block unrelated *requests* issued in the
// gap — the "next free time" reservation discipline reserves across idle
// gaps, so request and response streams must not share a reservation
// window.
//
// Each direction is a batched sim.Server: in-order packets pay a tail
// compare, out-of-order ones consult the link's gap calendar, and binding
// the engine clock retires past idle windows exactly.
package fabric

import (
	"fmt"

	"deact/internal/sim"
)

// Direction selects a fabric link.
type Direction int

// Link directions.
const (
	// ToFAM carries request packets from the nodes to the memory pool.
	ToFAM Direction = iota
	// ToNode carries response packets back.
	ToNode
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case ToFAM:
		return "to-fam"
	case ToNode:
		return "to-node"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Config describes the interconnect.
type Config struct {
	// Latency is the one-way propagation delay.
	Latency sim.Time
	// PacketTime is the serialization time of one 64B packet at the shared
	// fabric interface; it is what creates inter-node contention.
	PacketTime sim.Time
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Latency == 0 {
		return fmt.Errorf("fabric: latency must be non-zero")
	}
	return nil
}

// Fabric is the shared interconnect.
type Fabric struct {
	cfg     Config
	links   [2]sim.Server // indexed by Direction
	packets uint64
}

// New builds a fabric. Invalid configs panic (they are validated by
// core.Config first).
func New(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Fabric{cfg: cfg}
}

// Bind attaches the engine clock to both link directions (see sim.Clock).
func (f *Fabric) Bind(c sim.Clock) {
	f.links[ToFAM].Bind(c)
	f.links[ToNode].Bind(c)
}

// Traverse sends one 64B packet across the given direction's link starting
// at now and returns its arrival time at the far side: queueing at the
// shared link, serialization, then propagation.
func (f *Fabric) Traverse(now sim.Time, dir Direction) sim.Time {
	_, sent := f.links[dir].Acquire(now, f.cfg.PacketTime)
	f.packets++
	return sent + f.cfg.Latency
}

// Packets returns the number of packets carried in both directions.
func (f *Fabric) Packets() uint64 { return f.packets }

// Latency returns the configured one-way latency.
func (f *Fabric) Latency() sim.Time { return f.cfg.Latency }

// BusyTime returns the combined reservation time of both links.
func (f *Fabric) BusyTime() sim.Time {
	return f.links[ToFAM].BusyTime() + f.links[ToNode].BusyTime()
}
