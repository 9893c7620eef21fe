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

// BenchmarkEngine measures the per-event cost of the scheduler itself with
// a self-rescheduling chain. allocs/op is the headline: scheduling must be
// allocation-free in steady state.
func BenchmarkEngine(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		e := NewEngine()
		s := &stepper{e: e, limit: b.N}
		b.ReportAllocs()
		b.ResetTimer()
		e.ScheduleHandler(0, s)
		e.Run(0)
	})
}
