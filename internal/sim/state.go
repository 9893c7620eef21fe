// Snapshot state for the engine and its contention calendars. The state types
// here (and in the component packages) follow one pattern: a value-type
// XxxState with a CaptureState(*XxxState) that overwrites the target in
// place — reusing its backing arrays, so repeated captures into a recycled
// snapshot allocate nothing — and a RestoreState(*XxxState) that copies the
// state INTO the receiver's own storage. Restore never aliases the state's
// slices, so two components restored from one state share nothing.
package sim

// EngineState captures an Engine at a quiescent point: the event queue must
// be empty (every component retired, nothing in flight), which reduces the
// engine to its clock and counters. core.System snapshots exactly at the
// warmup/measure boundary, where it has already verified quiescence.
type EngineState struct {
	now   Time
	seq   uint64
	fired uint64
}

// CaptureState captures the engine into st. It panics if events are pending:
// snapshotting a non-quiescent engine would silently drop the in-flight
// events (and their Handler closures cannot be deep-copied anyway).
func (e *Engine) CaptureState(st *EngineState) {
	if len(e.queue) != 0 {
		panic("sim: CaptureState with pending events; snapshot only at a quiescent point")
	}
	st.now, st.seq, st.fired = e.now, e.seq, e.fired
}

// RestoreState rewinds the engine to st, emptying the queue.
func (e *Engine) RestoreState(st *EngineState) {
	e.now, e.seq, e.fired = st.now, st.seq, st.fired
	for i := range e.queue {
		e.queue[i] = event{}
	}
	e.queue = e.queue[:0]
	e.halted = false
}

// ServerState captures a Server's reservation calendar. The retired prefix
// is dropped (restore normalizes head to 0), which is behavior-identical:
// retired gaps are unreachable by construction.
type ServerState struct {
	tail      Time
	watermark Time
	busy      Time
	uses      uint64
	gaps      []gap
}

// CaptureState captures the server into st, reusing st's gap storage.
func (s *Server) CaptureState(st *ServerState) {
	st.tail, st.watermark, st.busy, st.uses = s.tail, s.watermark, s.busy, s.uses
	st.gaps = append(st.gaps[:0], s.gaps[s.head:]...)
}

// RestoreState rewinds the server to st, keeping the bound clock. The gaps
// are copied into the server's own storage, reserved at twice their number
// so the restored calendar has room to split before it first grows.
func (s *Server) RestoreState(st *ServerState) {
	s.tail, s.watermark, s.busy, s.uses = st.tail, st.watermark, st.busy, st.uses
	if cap(s.gaps) < 2*len(st.gaps) {
		s.gaps = make([]gap, 0, 2*len(st.gaps))
	}
	s.gaps = append(s.gaps[:0], st.gaps...)
	s.head = 0
}
