package sim

import "testing"

// stepper is a self-rescheduling Handler, the shape cpu.Core drives the
// engine with.
type stepper struct {
	e     *Engine
	count int
	limit int
}

func (s *stepper) Handle(now Time) {
	s.count++
	if s.count < s.limit {
		s.e.AfterHandler(1, s)
	}
}

// core is a self-rescheduling Handler whose steps vary in length, the way
// a cpu.Core's do: eight of them started at staggered times interleave on
// the queue, so a step's successor is sometimes the next event to fire and
// sometimes lands behind other cores' events.
type core struct {
	e     *Engine
	count int
	limit int
	x     uint32 // LCG state drawing the step lengths
}

func (c *core) Handle(now Time) {
	c.count++
	if c.count < c.limit {
		c.x = c.x*1664525 + 1013904223
		c.e.AfterHandler(500+Time(c.x>>22), c) // 0.5–1.5 ns steps
	}
}

// BenchmarkEngine measures the per-event cost of the scheduler itself.
// "handler" is one self-rescheduling chain; "cores-8" is eight of them at
// staggered times, the shape a two-node, four-core run produces. allocs/op
// is the headline: scheduling must be allocation-free in steady state.
func BenchmarkEngine(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		e := NewEngine()
		s := &stepper{e: e, limit: b.N}
		b.ReportAllocs()
		b.ResetTimer()
		e.ScheduleHandler(0, s)
		e.Run(0)
	})
	b.Run("cores-8", func(b *testing.B) {
		e := NewEngine()
		for i := range 8 {
			e.ScheduleHandler(Time(i)*100, &core{e: e, limit: b.N/8 + 1, x: uint32(i)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(0)
	})
}
