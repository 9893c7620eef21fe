package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the sort-based reference: the ceil-rank order statistic
// of the sample set, the same rank rule Histogram.Quantile uses.
func exactQuantile(sorted []uint64, q float64) uint64 {
	n := uint64(len(sorted))
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestHistogramQuantileOracle holds the histogram's quantile estimate to
// the sort-based exact order statistic: both must land in the same log₂
// bucket, for several distributions and quantiles. (The histogram cannot
// be closer than a bucket by construction — it only knows bucket counts.)
func TestHistogramQuantileOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	distributions := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(r.Intn(1_000_000)) },
		"exp-tail":  func() uint64 { return uint64(1) << r.Intn(40) },
		"bimodal":   func() uint64 { return [2]uint64{150, 2_000_000}[r.Intn(2)] + uint64(r.Intn(50)) },
		"constant":  func() uint64 { return 4096 },
		"withZeros": func() uint64 { return uint64(r.Intn(4)) },
	}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]uint64, 0, 5000)
			for i := 0; i < 5000; i++ {
				v := draw()
				h.Record(v)
				samples = append(samples, v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
				exact := exactQuantile(samples, q)
				est := h.Quantile(q)
				if got, want := bucketOf(uint64(est)), bucketOf(exact); got != want {
					t.Errorf("q=%.2f: estimate %.1f in bucket %d, exact %d in bucket %d", q, est, got, want, exact)
				}
			}
			var sum uint64
			for _, v := range samples {
				sum += v
			}
			if h.Count() != uint64(len(samples)) || h.SampleSum() != sum {
				t.Errorf("count/sum drifted: got %d/%d want %d/%d", h.Count(), h.SampleSum(), len(samples), sum)
			}
		})
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatalf("zero-value histogram not empty: %+v", h)
	}
	h.Record(0)
	if got := h.Quantile(1.0); got != 0 {
		t.Errorf("all-zero samples: p100 = %v, want 0", got)
	}
	h.Record(^uint64(0)) // clamps into the top bucket instead of being lost
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if got := h.Quantile(1.0); bucketOf(uint64(got)) != HistBuckets-1 {
		t.Errorf("max sample not in top bucket: %v", got)
	}
}

// TestHistogramMergeAssociative checks (a∪b)∪c == a∪(b∪c) == c∪(b∪a):
// merge order must not matter when aggregating per-node histograms.
func TestHistogramMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	parts := make([]Histogram, 3)
	for i := range parts {
		for j := 0; j < 1000+i*137; j++ {
			parts[i].Record(uint64(r.Intn(1 << (10 + i*7))))
		}
	}
	ab := parts[0]
	ab.Merge(parts[1])
	abc := ab
	abc.Merge(parts[2])

	bc := parts[1]
	bc.Merge(parts[2])
	aBC := parts[0]
	aBC.Merge(bc)

	cba := parts[2]
	cba.Merge(parts[1])
	cba.Merge(parts[0])

	if abc != aBC || abc != cba {
		t.Fatalf("merge not associative/commutative:\n(a∪b)∪c=%+v\na∪(b∪c)=%+v\nc∪b∪a=%+v", abc, aBC, cba)
	}
}

// TestHistogramSubInverts checks that Sub recovers exactly the samples
// recorded after a value copy — the warmup-exclusion diff the runner does.
func TestHistogramSubInverts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var h, wantTail Histogram
	for i := 0; i < 500; i++ {
		h.Record(uint64(r.Intn(1 << 20)))
	}
	warm := h
	for i := 0; i < 800; i++ {
		v := uint64(r.Intn(1 << 30))
		h.Record(v)
		wantTail.Record(v)
	}
	if got := h.Sub(warm); got != wantTail {
		t.Fatalf("Sub(warmup copy) != measured-only histogram:\ngot  %+v\nwant %+v", got, wantTail)
	}
}

// TestHistogramRecordAllocs asserts the hot-path contract directly, in
// addition to the BenchmarkHistogramRecord guard (which only reports).
func TestHistogramRecordAllocs(t *testing.T) {
	var h Histogram
	v := uint64(12345)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*2862933555777941757 + 3037000493 // vary the bucket
	}); allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

// BenchmarkHistogramRecord guards the per-sample cost: Record sits on the
// node's per-access path, so it must stay a few nanoseconds and 0 allocs/op
// (the bench-smoke artifact records both).
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i) * 997)
	}
	if h.Count() == 0 { // keep the loop live
		b.Fatal("no samples recorded")
	}
}
