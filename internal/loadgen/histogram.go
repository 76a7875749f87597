// Package loadgen is the deterministic closed-loop load harness of the
// wire front end: a fixed client population drives a Driver (the
// HTTP-fronted plane, or the in-process plane for contrast) in lockstep
// ticks through warmup/inject/recover phases, with a seeded key/tenant/
// payload mix. Counters and payload-size bucket counts are pure functions
// of the spec (gated by cmd/bench -check); wall-clock latency quantiles are
// informational — the host-speed figures the sim-cycle metrics can't see.
package loadgen

import (
	"fmt"
	"sort"
)

// Histogram is a fixed-bucket histogram over ascending upper bounds.
// Observations land in the first bucket whose bound is >= the value; the
// final bucket is unbounded. Bucket counts are a pure function of the
// observed values, so two histograms fed the same observations are
// identical.
type Histogram struct {
	bounds []int64
	counts []uint64
	total  uint64
	max    int64
	sum    uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (plus an implicit overflow bucket).
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("loadgen: bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// LatencyBounds is the fixed latency bucket ladder (values in
// nanoseconds): 1µs to ~4.2s in octaves, each octave split into eight
// linear sub-buckets, so a quantile resolves to within 12.5% and tail
// quantiles an octave apart or less (p95 vs p99) land in different buckets.
func LatencyBounds() []int64 {
	const octaves, subBuckets = 22, 8
	bounds := make([]int64, 0, 1+octaves*subBuckets)
	bounds = append(bounds, 1000)
	for b := int64(1000); len(bounds) < cap(bounds); b *= 2 {
		for j := int64(1); j <= subBuckets; j++ {
			bounds = append(bounds, b+j*b/subBuckets)
		}
	}
	return bounds
}

// SizeBounds is the fixed payload-size ladder: 16 B to 64 KiB in
// doublings (values in bytes).
func SizeBounds() []int64 {
	bounds := make([]int64, 13)
	b := int64(16)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i]++
	h.total++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the upper bound of the bucket where the cumulative
// count reaches q of the total — the standard histogram-quantile estimate.
// Overflow-bucket hits report the observed max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	want := uint64(float64(h.total) * q)
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= want {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// BucketCounts returns a copy of the per-bucket counts (last = overflow) —
// the deterministic figures the bench gate pins.
func (h *Histogram) BucketCounts() []uint64 {
	return append([]uint64(nil), h.counts...)
}
