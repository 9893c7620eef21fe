package acm

import (
	"fmt"
	"math/rand"
	"testing"

	"deact/internal/addr"
)

// denseStore is the store's previous layout, kept as a test oracle: a
// dense 1MB chunk of slots per 1GB region touched, and a shared region
// marked by overwriting every slot of its chunk. It answers what Store must
// answer, at a memory cost that grows with the pool.
type denseStore struct {
	acmBits uint
	chunks  [][]slot
	shared  map[uint64]map[uint16]Perm
}

func newDenseStore(acmBits uint) *denseStore {
	return &denseStore{acmBits: acmBits, shared: map[uint64]map[uint16]Perm{}}
}

func (s *denseStore) chunkFor(p addr.FPage, create bool) []slot {
	idx := p.Huge()
	for idx >= uint64(len(s.chunks)) {
		if !create {
			return nil
		}
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[idx] == nil && create {
		s.chunks[idx] = make([]slot, addr.PagesPerHuge)
	}
	return s.chunks[idx]
}

func (s *denseStore) Set(p addr.FPage, e Entry) error {
	if _, err := Encode(e, s.acmBits); err != nil {
		return err
	}
	s.chunkFor(p, true)[uint64(p)%addr.PagesPerHuge] = packSlot(e)
	return nil
}

func (s *denseStore) Clear(p addr.FPage) {
	if c := s.chunkFor(p, false); c != nil {
		c[uint64(p)%addr.PagesPerHuge] = 0
	}
}

func (s *denseStore) slotOf(p addr.FPage) slot {
	if c := s.chunkFor(p, false); c != nil {
		return c[uint64(p)%addr.PagesPerHuge]
	}
	return 0
}

func (s *denseStore) Entry(p addr.FPage) Entry { return s.slotOf(p).entry() }

func (s *denseStore) Has(p addr.FPage) bool { return s.slotOf(p) != 0 }

func (s *denseStore) Entries(yield func(addr.FPage, Entry) bool) {
	for ci, c := range s.chunks {
		base := uint64(ci) * addr.PagesPerHuge
		for i, v := range c {
			if v != 0 && !yield(addr.FPage(base+uint64(i)), v.entry()) {
				return
			}
		}
	}
}

func (s *denseStore) MarkShared(huge uint64, defaultPerm Perm) {
	c := s.chunkFor(addr.FPage(huge*addr.PagesPerHuge), true)
	fill := packSlot(Entry{Owner: SharedOwner(s.acmBits), Perm: defaultPerm})
	for i := range c {
		c[i] = fill
	}
	if s.shared[huge] == nil {
		s.shared[huge] = map[uint16]Perm{}
	}
}

func (s *denseStore) Grant(huge uint64, node uint16, p Perm) {
	if s.shared[huge] == nil {
		s.shared[huge] = map[uint16]Perm{}
	}
	s.shared[huge][node] = p
}

func (s *denseStore) Revoke(huge uint64, node uint16) { delete(s.shared[huge], node) }

func (s *denseStore) Check(p addr.FPage, node uint16, want Perm) Decision {
	e := s.Entry(p)
	if e.Owner == SharedOwner(s.acmBits) {
		perm := s.shared[p.Huge()][node]
		d := Decision{Shared: true, BitmapFetch: true, EntryPerm: perm}
		if !permits(perm, want) {
			d.DeniedReason = fmt.Sprintf("node %d holds %v on shared region %d, needs %v", node, perm, p.Huge(), want)
			return d
		}
		d.Allowed = true
		return d
	}
	d := Decision{EntryPerm: e.Perm}
	if e.Owner != node {
		d.DeniedReason = fmt.Sprintf("page %d owned by node %d, accessed by node %d", p, e.Owner, node)
		return d
	}
	if !permits(e.Perm, want) {
		d.DeniedReason = fmt.Sprintf("node %d holds %v on page %d, needs %v", node, e.Perm, p, want)
		return d
	}
	d.Allowed = true
	return d
}

// pageEntry is one step of an Entries sequence.
type pageEntry struct {
	p addr.FPage
	e Entry
}

// TestStoreMatchesDenseReference drives the page-keyed Store and the dense
// chunked reference with the same random Set, Clear, MarkShared, Grant and
// Revoke stream, at every ACM width on pools of one and four 1GB regions.
// The pages include 0, both sides of every region boundary and the last
// page a store can hold, plus enough scattered pages to grow the table
// several times. After every operation Entry, Has and Check must agree on a
// probe page, and periodically the whole Entries sequence must agree —
// including one that rewrites owners mid-iteration, as a job migration
// does.
func TestStoreMatchesDenseReference(t *testing.T) {
	for _, bits := range []uint{8, 16, 32} {
		for _, regions := range []uint64{1, 4} {
			t.Run(fmt.Sprintf("acm%d/%dGB", bits, regions), func(t *testing.T) {
				t.Parallel()
				checkAgainstDense(t, bits, regions)
			})
		}
	}
}

func checkAgainstDense(t *testing.T, bits uint, regions uint64) {
	l := layout()
	l.ACMBits = bits
	l.FAMSize = regions * addr.HugeSize
	s := NewStore(l)
	ref := newDenseStore(bits)
	rng := rand.New(rand.NewSource(int64(bits)<<8 | int64(regions)))
	maxOwner := int(SharedOwner(bits))

	pages := []addr.FPage{0, addr.MaxPages - 1}
	for h := uint64(1); h <= regions; h++ {
		pages = append(pages, addr.FPage(h*addr.PagesPerHuge-1), addr.FPage(h*addr.PagesPerHuge))
	}
	for range 3000 {
		pages = append(pages, addr.FPage(rng.Int63n(int64(regions*addr.PagesPerHuge))))
	}
	page := func() addr.FPage { return pages[rng.Intn(len(pages))] }
	node := func() uint16 { return uint16(rng.Intn(maxOwner + 1)) }
	perm := func() Perm { return Perm(rng.Intn(4)) }

	// compareEntries walks Store.Entries in step with the reference's
	// sequence, collected into a buffer reused across comparisons.
	var want []pageEntry
	compareEntries := func(op int) {
		want = want[:0]
		ref.Entries(func(p addr.FPage, e Entry) bool {
			want = append(want, pageEntry{p, e})
			return true
		})
		i := 0
		s.Entries(func(p addr.FPage, e Entry) bool {
			switch {
			case i == len(want):
				t.Fatalf("op %d: Entries yields %+v past the reference's %d pages", op, pageEntry{p, e}, len(want))
			case (pageEntry{p, e}) != want[i]:
				t.Fatalf("op %d: Entries[%d] = %+v, reference %+v", op, i, pageEntry{p, e}, want[i])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("op %d: Entries yields %d pages, reference %d", op, i, len(want))
		}
	}
	// migrate moves up to maxMoves pages from owner from to owner to,
	// Setting each page as it is yielded, and stops the iteration once it
	// has moved that many. It returns how many it rewrote. The bound keeps
	// a migration of the shared marker from giving every page of a carved
	// region a cell of its own.
	const maxMoves = 256
	migrate := func(each func(func(addr.FPage, Entry) bool), set func(addr.FPage, Entry) error, from, to uint16) int {
		moved := 0
		each(func(p addr.FPage, e Entry) bool {
			if e.Owner != from {
				return true
			}
			e.Owner = to
			if err := set(p, e); err != nil {
				t.Fatalf("Set(%d, %+v) during Entries: %v", p, e, err)
			}
			moved++
			return moved < maxMoves
		})
		return moved
	}

	ops := 20000
	if testing.Short() {
		ops = 5000 // still enough Sets to grow the table
	}
	for op := range ops {
		switch r := rng.Intn(1000); {
		case r < 600:
			p, e := page(), Entry{Owner: node(), Perm: perm()}
			if rng.Intn(8) == 0 {
				e = Entry{}
			}
			errGot, errWant := s.Set(p, e), ref.Set(p, e)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("op %d: Set(%d, %+v) error %v, reference %v", op, p, e, errGot, errWant)
			}
		case r < 900:
			p := page()
			s.Clear(p)
			ref.Clear(p)
		case r < 902:
			huge, pm := uint64(rng.Int63n(int64(regions))), perm()
			s.MarkShared(huge, pm)
			ref.MarkShared(huge, pm)
		case r < 950:
			huge, n, pm := uint64(rng.Int63n(int64(regions))), node(), perm()
			s.Grant(huge, n, pm)
			ref.Grant(huge, n, pm)
		case r < 996:
			huge, n := uint64(rng.Int63n(int64(regions))), node()
			s.Revoke(huge, n)
			ref.Revoke(huge, n)
		case r < 998:
			compareEntries(op)
		default:
			from, to := node(), node()
			if to == SharedOwner(bits) {
				to--
			}
			got, want := migrate(s.Entries, s.Set, from, to), migrate(ref.Entries, ref.Set, from, to)
			if got != want {
				t.Fatalf("op %d: migration rewrote %d pages, reference %d", op, got, want)
			}
			compareEntries(op)
		}
		p, n, need := page(), node(), perm()
		if got, want := s.Entry(p), ref.Entry(p); got != want {
			t.Fatalf("op %d: Entry(%d) = %+v, reference %+v", op, p, got, want)
		}
		if got, want := s.Has(p), ref.Has(p); got != want {
			t.Fatalf("op %d: Has(%d) = %v, reference %v", op, p, got, want)
		}
		if got, want := s.Check(p, n, need), ref.Check(p, n, need); got != want {
			t.Fatalf("op %d: Check(%d, %d, %v) = %+v, reference %+v", op, p, n, need, got, want)
		}
	}
	compareEntries(-1)
	if len(s.cells) <= minCells {
		t.Fatalf("table never grew: %d cells", len(s.cells))
	}
}

// TestSetRefusesUnindexablePage: a page number whose key would not fit the
// table's 32-bit cell is refused by Set and reads as absent.
func TestSetRefusesUnindexablePage(t *testing.T) {
	s := NewStore(layout())
	if err := s.Set(addr.MaxPages-1, Entry{Owner: 1, Perm: PermR}); err != nil {
		t.Fatalf("last indexable page refused: %v", err)
	}
	for _, p := range []addr.FPage{addr.MaxPages, addr.MaxPages + 1, 1 << 40} {
		if err := s.Set(p, Entry{Owner: 1, Perm: PermR}); err == nil {
			t.Errorf("Set(%d) accepted", p)
		}
		s.Clear(p)
		if s.Has(p) || s.Entry(p) != (Entry{}) {
			t.Errorf("page %d reads as present", p)
		}
	}
	if !s.Has(addr.MaxPages - 1) {
		t.Fatal("last indexable page lost")
	}
}
