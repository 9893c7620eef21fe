package node

import (
	"fmt"

	"deact/internal/addr"
	"deact/internal/sim"
)

// PrefetchConfig configures the node's PC-keyed delta-pattern stream
// prefetcher. The zero value disables the prefetcher entirely — no table
// is built, no cycle or draw is spent, so default runs are bit-identical
// to builds without the feature.
type PrefetchConfig struct {
	// Streams is the number of tracked PC entries (rounded up to a power
	// of two). 0 disables the prefetcher.
	Streams int
	// Degree is how many blocks ahead a confirmed stream fetches per
	// trigger, in 64B blocks. 0 means the default (2).
	Degree int
	// Threshold is how many consecutive same-delta accesses a PC must
	// produce before its stream is confirmed and prefetches issue. 0
	// means the default (2).
	Threshold int
}

// Upper bounds on the prefetcher's sizing knobs, far above any value the
// experiments use (64 streams, threshold 2). They keep a validated config
// constructible: newPrefetcher rounds Streams up to a power of two, which
// overflows near 1<<62 and allocates tens of GB near 1<<30, and the
// confirmation counter a Threshold is compared against is an int32.
const (
	MaxPrefetchStreams   = 1 << 16
	MaxPrefetchThreshold = 1 << 10
)

// Enabled reports whether the prefetcher is active.
func (c PrefetchConfig) Enabled() bool { return c.Streams > 0 }

// Validate checks the configuration.
func (c PrefetchConfig) Validate() error {
	switch {
	case c.Streams < 0 || c.Degree < 0 || c.Threshold < 0:
		return fmt.Errorf("node: negative prefetch parameter")
	case c.Streams > MaxPrefetchStreams:
		return fmt.Errorf("node: prefetch Streams %d exceeds %d", c.Streams, MaxPrefetchStreams)
	case c.Threshold > MaxPrefetchThreshold:
		return fmt.Errorf("node: prefetch Threshold %d exceeds %d", c.Threshold, MaxPrefetchThreshold)
	}
	return nil
}

// PrefetchStats counts prefetcher activity for the report and sweeps.
type PrefetchStats struct {
	// Observed counts demand accesses presented to the prefetcher (ops
	// with a nonzero PC).
	Observed uint64
	// Issued counts prefetch requests injected into the memory system.
	Issued uint64
	// PageStops counts candidate prefetches dropped because they crossed
	// the demand access's node-physical page (NP pages are not
	// VA-contiguous, so hardware cannot stride past one).
	PageStops uint64
	// Errors counts prefetches dropped by the memory path (e.g. ACM
	// denial of a speculative line); the fetch is abandoned.
	Errors uint64
}

// Sub returns s minus an earlier capture o (warmup exclusion).
func (s PrefetchStats) Sub(o PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Observed:  s.Observed - o.Observed,
		Issued:    s.Issued - o.Issued,
		PageStops: s.PageStops - o.PageStops,
		Errors:    s.Errors - o.Errors,
	}
}

// pfEntry is one PC's delta-detection state: the last block it touched,
// the last stride between touches, and how many times in a row that
// stride repeated.
type pfEntry struct {
	pc    uint64
	last  uint64 // block index of the previous access
	delta int64  // last observed stride, in blocks
	conf  int32  // consecutive confirmations of delta
}

// prefetcher is the PC-indexed delta table. It is pure bookkeeping: no
// RNG, no clock — timing effects come only from the prefetches the node
// injects into its ordinary memory path.
type prefetcher struct {
	tbl       []pfEntry
	mask      uint64
	degree    int
	threshold int32
}

func newPrefetcher(c PrefetchConfig) *prefetcher {
	n := 1
	for n < c.Streams {
		n <<= 1
	}
	deg := c.Degree
	if deg == 0 {
		deg = 2
	}
	thr := c.Threshold
	if thr == 0 {
		thr = 2
	}
	return &prefetcher{
		tbl:       make([]pfEntry, n),
		mask:      uint64(n - 1),
		degree:    deg,
		threshold: int32(thr),
	}
}

// observe trains on one demand access and returns the confirmed stream
// delta in blocks, or 0 if this PC has no confirmed stream yet.
func (p *prefetcher) observe(pc, block uint64) int64 {
	e := &p.tbl[(pc^pc>>9)&p.mask]
	if e.pc != pc {
		*e = pfEntry{pc: pc, last: block}
		return 0
	}
	d := int64(block - e.last)
	e.last = block
	if d == 0 {
		return 0
	}
	if d == e.delta {
		if e.conf < p.threshold {
			e.conf++
		}
	} else {
		e.delta, e.conf = d, 1
	}
	if e.conf >= p.threshold {
		return d
	}
	return 0
}

// prefetch trains the table on a completed demand access and, when the
// access's PC has a confirmed stream, injects up to degree prefetches
// along it. Prefetches run the ordinary memAccess path fire-and-forget at
// the demand's completion time: they fill real cache lines, occupy DRAM
// banks, fabric links and the FAM device, and on DeACT schemes allocate
// translator cache lines and outstanding-mapping slots — modeling how
// prefetch traffic amplifies (or hides) translation cost. Candidates stop
// at the NP page boundary: the next virtual page's NP frame is not
// adjacent, so a physical stream prefetcher cannot follow.
func (n *Node) prefetch(now sim.Time, coreID int, pc uint64, npa addr.NPAddr) {
	if pc == 0 {
		return
	}
	n.stats.Prefetch.Observed++
	block := uint64(npa) >> addr.BlockShift
	d := n.pf.observe(pc, block)
	if d == 0 {
		return
	}
	page := npa.Page()
	for i := 1; i <= n.pf.degree; i++ {
		cand := addr.NPAddr((block + uint64(d*int64(i))) << addr.BlockShift)
		if cand.Page() != page {
			n.stats.Prefetch.PageStops++
			break
		}
		n.stats.Prefetch.Issued++
		if _, err := n.memAccess(now, coreID, cand, false, false); err != nil {
			n.stats.Prefetch.Errors++
		}
	}
}
