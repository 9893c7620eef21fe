package tlb

import (
	"errors"
	"testing"

	"deact/internal/pagetable"
	"deact/internal/sim"
)

// readCost is what every fakePort entry read costs.
const readCost = sim.Time(10)

// event is one charge the walker made: a read of addr (fault false) or a
// fault of addr's key (fault true).
type event struct {
	fault bool
	addr  uint64
}

// fakePort charges readCost per entry read and logs every call. Fault
// maps the key to mapTo when install is set and reports report.
type fakePort struct {
	tbl      *pagetable.Table
	log      []event
	failRead int // fail the n-th read (1-based); 0 never fails
	faultErr error
	install  bool
	mapTo    uint64
	report   uint64
}

var errRead = errors.New("read failed")

func (p *fakePort) ReadEntry(now sim.Time, entryAddr uint64) (sim.Time, error) {
	p.log = append(p.log, event{addr: entryAddr})
	if len(p.log) == p.failRead {
		return now, errRead
	}
	return now + readCost, nil
}

func (p *fakePort) Fault(key uint64) (uint64, error) {
	p.log = append(p.log, event{fault: true, addr: key})
	if p.faultErr != nil {
		return 0, p.faultErr
	}
	if p.install {
		if err := p.tbl.Map(key, p.mapTo); err != nil {
			return 0, err
		}
	}
	return p.report, nil
}

// walkFixture is a table with one mapped key, so the walks below share its
// upper levels and fault deeper down, plus a walker and PTW cache over it.
func walkFixture(t *testing.T) (*Walker, *PTWCache, *fakePort) {
	t.Helper()
	tbl, err := pagetable.New("pt", seqAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x12345, 7); err != nil {
		t.Fatal(err)
	}
	return &Walker{Table: tbl}, NewPTWCache(32), &fakePort{tbl: tbl}
}

// reads returns the addresses a walk of key from level 0 would read now.
func reads(tbl *pagetable.Table, key uint64) []event {
	steps, _, _ := tbl.Walk(key, 0)
	var ev []event
	for _, s := range steps {
		ev = append(ev, event{addr: s.EntryAddr})
	}
	return ev
}

func sameEvents(t *testing.T, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("charges %+v, want %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("charge %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
}

func TestWalkMappedChargesEachStep(t *testing.T) {
	w, ptw, p := walkFixture(t)
	want := reads(w.Table, 0x12345)
	v, done, err := w.Walk(100, 0x12345, ptw, p)
	if err != nil || v != 7 {
		t.Fatalf("walk = (%d, %v)", v, err)
	}
	sameEvents(t, p.log, want)
	if done != 100+readCost*sim.Time(len(want)) {
		t.Fatalf("done = %v, want %d reads after 100", done, len(want))
	}
}

// TestWalkFaultChargeOrder: the steps down to the unmapped entry, then the
// fault, then the retried steps from the faulting level; the retried steps
// replace the faulting one in the walk the PTW cache sees.
func TestWalkFaultChargeOrder(t *testing.T) {
	w, ptw, p := walkFixture(t)
	key := uint64(0x12345 + 1<<18) // shares the root, faults at level 1
	pre := reads(w.Table, key)
	if len(pre) != 2 {
		t.Fatalf("fixture: pre-fault walk has %d steps, want 2", len(pre))
	}
	p.install, p.mapTo, p.report = true, 9, 9
	v, done, err := w.Walk(0, key, ptw, p)
	if err != nil || v != 9 {
		t.Fatalf("walk = (%d, %v)", v, err)
	}
	want := append(append(pre, event{fault: true, addr: key}), reads(w.Table, key)[1:]...)
	sameEvents(t, p.log, want)
	if done != readCost*sim.Time(len(want)-1) {
		t.Fatalf("done = %v, want %d reads", done, len(want)-1)
	}
	levels := w.buf[:pagetable.Levels]
	for i, s := range levels {
		if s.Level != i {
			t.Fatalf("walk levels %+v: retried steps did not replace the faulting one", levels)
		}
	}
}

func TestWalkReadErrorStopsBeforeFault(t *testing.T) {
	w, ptw, p := walkFixture(t)
	p.failRead, p.install = 1, true
	_, _, err := w.Walk(0, 0x12345+1<<18, ptw, p)
	if err != errRead {
		t.Fatalf("err = %v, want the port's error unchanged", err)
	}
	for _, e := range p.log {
		if e.fault {
			t.Fatalf("fault after a failed read: %+v", p.log)
		}
	}
	if len(p.log) != 1 {
		t.Fatalf("walk kept reading after an error: %+v", p.log)
	}
}

func TestWalkFaultErrors(t *testing.T) {
	key := uint64(0x12345 + 1<<18)
	errFault := errors.New("no memory")
	for _, tc := range []struct {
		name  string
		setup func(*fakePort)
		want  error
	}{
		{"fault error", func(p *fakePort) { p.faultErr = errFault }, errFault},
		{"still unmapped", func(p *fakePort) { p.report = 9 }, ErrFaultUnmapped},
		{"mismatch", func(p *fakePort) { p.install, p.mapTo, p.report = true, 9, 8 }, ErrFaultMismatch},
	} {
		w, ptw, p := walkFixture(t)
		tc.setup(p)
		if v, _, err := w.Walk(0, key, ptw, p); err != tc.want || v != 0 {
			t.Errorf("%s: walk = (%d, %v), want (0, %v)", tc.name, v, err, tc.want)
		}
		if lvl := ptw.BestStartLevel(key); lvl != 0 {
			t.Errorf("%s: failed walk filled the PTW cache (start level %d)", tc.name, lvl)
		}
	}
}

func TestWalkFillsPTWCache(t *testing.T) {
	w, ptw, p := walkFixture(t)
	if _, _, err := w.Walk(0, 0x12345, ptw, p); err != nil {
		t.Fatal(err)
	}
	p.log = nil
	// The neighbouring key shares the PTE page: only the PTE is read.
	if _, _, err := w.Walk(0, 0x12346, ptw, &fakePort{tbl: w.Table, install: true, mapTo: 3, report: 3}); err != nil {
		t.Fatal(err)
	}
	if lvl := ptw.BestStartLevel(0x12345); lvl != pagetable.Levels-1 {
		t.Fatalf("start level after walks = %d, want %d", lvl, pagetable.Levels-1)
	}
	if _, _, err := w.Walk(0, 0x12345, ptw, p); err != nil {
		t.Fatal(err)
	}
	if len(p.log) != 1 {
		t.Fatalf("warm walk charged %d reads, want 1", len(p.log))
	}
}

func TestWalkAllocatesNothing(t *testing.T) {
	w, ptw, p := walkFixture(t)
	p.log = make([]event, 0, 2*pagetable.Levels)
	keys := []uint64{0x12345, 0x12345 + 1<<9, 0x12345 + 1<<18}
	for i, k := range keys {
		if err := w.Table.Map(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p.log = p.log[:0]
		ptw.Flush() // walk from the root every time
		if _, _, err := w.Walk(0, keys[i%len(keys)], ptw, p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Walk allocates %.1f times per call", allocs)
	}
}
