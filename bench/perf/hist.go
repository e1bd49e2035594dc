package perf

import (
	"math"
	"time"
)

// histGamma is the bucket growth factor: bucket i holds the values in
// (γ^(i-1), γ^i], so any value reported inside a bucket is within 1% of
// every sample in it.
const histGamma = 1.01

var logGamma = math.Log(histGamma)

// Hist is a histogram with logarithmic buckets for non-negative values
// (durations are recorded in nanoseconds). Recording costs one logarithm and
// no allocation once the buckets cover the value, so a load loop can
// record millions of hot-path samples. A Hist is not safe for concurrent
// use; give each caller its own and Merge them.
type Hist struct {
	counts   []uint64 // counts[0] holds the values ≤ 1
	n        uint64
	min, max float64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(v) / logGamma))
}

// Add records one value.
func (h *Hist) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i := bucketOf(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+64)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Record adds a duration in nanoseconds.
func (h *Hist) Record(d time.Duration) { h.Add(float64(d)) }

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Count is the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Min and Max are the exact smallest and largest samples (0 when empty).
func (h *Hist) Min() float64 { return h.min }
func (h *Hist) Max() float64 { return h.max }

// rankBucket returns the bucket holding the nearest-rank q-quantile, the
// sample of rank ⌈q·n⌉, and that sample's rank within the bucket.
func (h *Hist) rankBucket(q float64) (bucket int, rank uint64) {
	rank = uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			return i, rank - seen
		}
		seen += c
	}
	return len(h.counts) - 1, 1
}

// Quantile returns the nearest-rank q-quantile within 1% (0 when empty).
// Inside its bucket the value is placed by the sample's rank among the
// bucket's samples, so the estimate moves with the data instead of
// snapping to one value per bucket.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	i, k := h.rankBucket(q)
	if i == 0 {
		return h.min // every value ≤ 1 shares bucket 0
	}
	pos := (float64(k) - 0.5) / float64(h.counts[i])
	v := math.Pow(histGamma, float64(i)-1+pos)
	return math.Min(math.Max(v, h.min), h.max)
}

// Beyond counts the samples in buckets above the one holding the
// q-quantile: the samples that certainly exceed it.
func (h *Hist) Beyond(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	var out uint64
	i, _ := h.rankBucket(q)
	for _, c := range h.counts[i+1:] {
		out += c
	}
	return out
}

// Ms is the q-quantile of a nanosecond histogram in milliseconds.
func (h *Hist) Ms(q float64) float64 { return h.Quantile(q) / 1e6 }
