package tlb

import (
	"errors"

	"deact/internal/arena"
	"deact/internal/pagetable"
	"deact/internal/sim"
)

// WalkPort is what a Walker charges a walk to.
type WalkPort interface {
	// ReadEntry charges the read of the 8-byte page-table entry at
	// entryAddr, issued at now, and returns when it completes.
	ReadEntry(now sim.Time, entryAddr uint64) (sim.Time, error)
	// Fault installs a mapping for an unmapped key (an OS first touch, a
	// broker allocation) and returns the value it mapped.
	Fault(key uint64) (uint64, error)
}

// Errors Walk returns, unwrapped, when a successful Fault did not leave the
// mapping it reported. Callers map them to their own messages.
var (
	ErrFaultUnmapped = errors.New("tlb: key still unmapped after fault")
	ErrFaultMismatch = errors.New("tlb: retried walk disagrees with fault")
)

// Walker is a hardware page-table walker over one radix table. The zero
// value with Table set is ready; walks reuse one scratch buffer, so they
// allocate nothing in steady state.
type Walker struct {
	Table *pagetable.Table
	buf   []pagetable.WalkStep
}

// NewWalker returns a walker over table whose step buffer comes from a,
// sized for the longest walk: Levels steps, a fault's retry included (the
// retried steps replace the faulting one). A nil arena allocates normally.
func NewWalker(a *arena.Arena, table *pagetable.Table) Walker {
	return Walker{Table: table, buf: arena.Slice[pagetable.WalkStep](a, "tlb.walkSteps", pagetable.Levels)[:0]}
}

// Recycle returns the step buffer to a. The walker must not be used
// afterwards.
func (w *Walker) Recycle(a *arena.Arena) {
	arena.Release(a, "tlb.walkSteps", w.buf)
	w.buf = nil
}

// Walk resolves key. It starts at the deepest level ptw covers and charges
// each entry read through port, in walk order. If the walk reaches an
// unmapped entry, port.Fault installs the mapping and the walk retries from
// the faulting level; the retried steps replace the faulting one and are
// charged after the fault. A completed walk fills ptw. Port errors are
// returned unchanged, and done is the time reached when the walk stopped.
func (w *Walker) Walk(now sim.Time, key uint64, ptw *PTWCache, port WalkPort) (value uint64, done sim.Time, err error) {
	steps, value, ok := w.Table.WalkAppend(key, ptw.BestStartLevel(key), w.buf[:0])
	done, err = charge(now, steps, port)
	if err == nil && !ok {
		var faulted uint64
		if faulted, err = port.Fault(key); err == nil {
			head := len(steps) - 1
			steps, value, ok = w.Table.WalkAppend(key, steps[head].Level, steps[:head])
			if !ok {
				err = ErrFaultUnmapped
			} else if done, err = charge(done, steps[head:], port); err == nil && value != faulted {
				err = ErrFaultMismatch
			}
		}
	}
	w.buf = steps[:0]
	if err != nil {
		return 0, done, err
	}
	ptw.FillFromWalk(key, steps)
	return value, done, nil
}

// charge reads steps through port one after another, starting at t.
func charge(t sim.Time, steps []pagetable.WalkStep, port WalkPort) (sim.Time, error) {
	for _, s := range steps {
		var err error
		if t, err = port.ReadEntry(t, s.EntryAddr); err != nil {
			return t, err
		}
	}
	return t, nil
}
