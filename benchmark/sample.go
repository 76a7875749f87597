package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a tail quantile before it is
// reported (the choosing-metrics guide's rule): p95 needs 200 samples, p99
// needs 1000, p99.9 needs 10 000.
const minTail = 10

// recorder keeps every per-op latency of one timed window as a raw sample,
// with the completion offset of each op so throughput can be cut into
// slices afterwards. Quantiles are exact order statistics of the samples;
// nothing is bucketed.
type recorder struct {
	lat  []time.Duration // one per successful op
	done []time.Duration // completion offset from window start, same order
}

func newRecorder(capHint int) *recorder {
	return &recorder{
		lat:  make([]time.Duration, 0, capHint),
		done: make([]time.Duration, 0, capHint),
	}
}

// observe records one successful op: its latency and when, relative to the
// window start, it completed.
func (r *recorder) observe(latency, completedAt time.Duration) {
	r.lat = append(r.lat, latency)
	r.done = append(r.done, completedAt)
}

func (r *recorder) count() int { return len(r.lat) }

// quantile returns the q-quantile (0 < q < 1) of the recorded latencies as
// the nearest-rank order statistic: the smallest sample with at least
// q·n samples at or below it. It refuses a tail quantile (q above one half)
// that has fewer than minTail samples beyond it.
func (r *recorder) quantile(q float64) (time.Duration, error) {
	return quantileOf(r.lat, q)
}

func quantileOf(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.3f of no samples", q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %.3f out of (0,1)", q)
	}
	// The epsilon keeps 200 × (1 − 0.95), which is not exact in binary,
	// on the right side of the rule.
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("quantile %.3f needs %d samples, have %d",
			q, int(math.Ceil(minTail/(1-q)-1e-9)), n)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], nil
}

// sliceRates cuts the recorded ops, in completion order, into n slices of
// equal op count and returns the completion rate (ops/s) of each: the ops
// in the slice divided by the time from the previous slice's last
// completion (the window's start, for the first) to its own. Cutting by
// count keeps a slow workload's rates from being quantised: at 30 ops/s a
// 1.6 s time slice holds 48 ± 1 ops, a 2 % step. With fewer ops than
// slices it returns one rate over them all.
func (r *recorder) sliceRates(n int) []float64 {
	ops := len(r.done)
	if ops == 0 || n <= 0 {
		return nil
	}
	if ops < n {
		n = 1
	}
	rates := make([]float64, 0, n)
	var from time.Duration
	for i := 0; i < n; i++ {
		lo, hi := i*ops/n, (i+1)*ops/n
		to := r.done[hi-1]
		if to > from {
			rates = append(rates, float64(hi-lo)/(to-from).Seconds())
		}
		from = to
	}
	return rates
}

// median returns the median of xs (mean of the middle pair for even n);
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spreadPct is (max − min) / median of xs in percent — how far apart the
// slices of one window ran. 0 when the median is 0.
func spreadPct(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / med * 100
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
