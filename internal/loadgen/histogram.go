// Package loadgen is the deterministic closed-loop load harness of the
// wire front end: a fixed client population drives a Driver (the
// HTTP-fronted plane, or the in-process plane for contrast) in lockstep
// ticks through warmup/inject/recover phases, with a seeded key/tenant/
// payload mix. Every figure of a Result — sent, served, shed and lost
// counters and payload-size bucket counts — is a pure function of the
// spec and the driver's replies, gated by cmd/bench -check. It measures no
// host time; benchmark/ does that.
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
}

// BucketCounts returns a copy of the per-bucket counts (last = overflow) —
// the deterministic figures the bench gate pins.
func (h *Histogram) BucketCounts() []uint64 {
	return append([]uint64(nil), h.counts...)
}
