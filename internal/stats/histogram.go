package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// HistBuckets is the fixed bucket count of Histogram. Bucket 0 holds the
// value 0 and bucket i≥1 holds [2^(i-1), 2^i). 47 doublings cover
// [1, 2^47) — about 140 seconds at one picosecond resolution — far beyond
// any latency the simulator produces, so the top bucket never saturates in
// practice (values above the range clamp into it rather than being lost).
const HistBuckets = 48

// Histogram is a deterministic fixed-bucket log₂ histogram of non-negative
// integer samples (the simulator records latencies in picoseconds).
//
// Design constraints, in priority order:
//
//   - Record is allocation-free and branch-cheap: one bits.Len64, one
//     clamp, three stores. The node hot path calls it per memory access and
//     BenchmarkCoreRun's allocs/op gate must not move.
//   - The zero value is ready to use, and the struct contains only
//     fixed-size arrays and integers, so a plain value copy (as
//     node.Stats reads do for the whole Stats block) is a deep copy.
//   - Counts are mergeable (Merge) and subtractable (Sub), because the
//     measured phase is computed as end-of-run minus end-of-warmup, the
//     same way every scalar counter in node.Stats is diffed.
//
// Quantiles are estimated by ceil-rank selection over the buckets with
// linear interpolation inside the selected bucket; the estimate always
// falls in the same bucket as the exact order statistic (the histogram
// oracle test holds this against a sort-based reference).
type Histogram struct {
	counts [HistBuckets]uint64
	n      uint64
	sum    uint64
}

// bucketOf returns the bucket index for sample v: bits.Len64 maps 0→0,
// [2^(i-1), 2^i)→i, clamped to the top bucket.
func bucketOf(v uint64) int {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// Record adds one sample. It never allocates.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// SampleSum returns the sum of all recorded samples.
func (h *Histogram) SampleSum() uint64 { return h.sum }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Merge adds o's samples into h. Merge is associative and commutative:
// merging per-node histograms in any order yields the same counts.
func (h *Histogram) Merge(o Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}

// Sub returns the histogram of the samples in h but not in o, where o is an
// earlier capture of the same histogram (o's counts are bucket-wise ≤ h's).
// This is how the measured-phase distribution is extracted: subtract the
// end-of-warmup capture from the end-of-run capture.
func (h Histogram) Sub(o Histogram) Histogram {
	var d Histogram
	for i := range h.counts {
		d.counts[i] = h.counts[i] - o.counts[i]
	}
	d.n = h.n - o.n
	d.sum = h.sum - o.sum
	return d
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i == 64 { // unreachable with HistBuckets=48; kept for safety
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<i - 1
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded samples, 0 when the histogram is empty. The rank is
// ceil(q·count) clamped to [1, count]; the returned value interpolates
// linearly across the selected bucket's range and is therefore always
// inside that bucket. The computation is pure integer arithmetic plus one
// float division — bit-deterministic across platforms.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) { // ceil
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			pos := rank - cum // in [1, c]
			return float64(lo) + float64(hi-lo)*float64(pos)/float64(c)
		}
		cum += c
	}
	// Unreachable: rank ≤ n and the counts sum to n.
	return 0
}

// P50 and P99 are the tail-latency shorthands the report uses.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// histJSON is the canonical wire form of a Histogram: the non-zero buckets
// as ascending [bucket, count] pairs plus the sample count and sum. Sparse
// pairs keep entries small (most tenant slots of a run are empty) while the
// fixed emission order keeps the encoding deterministic — the persistent
// result store byte-compares encodings to detect drift.
type histJSON struct {
	N      uint64      `json:"N,omitempty"`
	Sum    uint64      `json:"Sum,omitempty"`
	Counts [][2]uint64 `json:"Counts,omitempty"`
}

// MarshalJSON encodes the histogram's exact state; an empty histogram
// encodes as {}. The encoding round-trips bit-exactly through
// UnmarshalJSON.
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{N: h.n, Sum: h.sum}
	for i, c := range h.counts {
		if c != 0 {
			j.Counts = append(j.Counts, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a MarshalJSON encoding, rejecting states no
// sequence of Record calls can produce (out-of-range buckets, bucket counts
// that do not sum to N), so a corrupted store entry fails decoding instead
// of resurfacing as an impossible distribution.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var j histJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	var d Histogram
	var total uint64
	for _, bc := range j.Counts {
		i, c := bc[0], bc[1]
		if i >= HistBuckets {
			return fmt.Errorf("stats: histogram bucket %d out of range", i)
		}
		if d.counts[i] != 0 {
			return fmt.Errorf("stats: histogram bucket %d repeated", i)
		}
		d.counts[i] = c
		total += c
	}
	if total != j.N {
		return fmt.Errorf("stats: histogram bucket counts sum to %d, want N=%d", total, j.N)
	}
	d.n, d.sum = j.N, j.Sum
	*h = d
	return nil
}
