package main

import (
	"math"
	"testing"
	"time"
)

// uniform returns n latencies 1µs, 2µs, … nµs in a scrambled order.
func uniform(n int) *recorder {
	r := newRecorder(n)
	for i := 0; i < n; i++ {
		v := (i*7919)%n + 1 // 7919 is prime, so this visits every value once for n not a multiple of it
		r.observe(time.Duration(v)*time.Microsecond, time.Duration(i)*time.Millisecond)
	}
	return r
}

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	r := uniform(1000)
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.001, 1 * time.Microsecond},
	} {
		got, err := r.quantile(tc.q)
		if err != nil || got != tc.want {
			t.Errorf("quantile(%v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
}

func TestQuantileOfSkewedSamples(t *testing.T) {
	// 380 fast ops and 20 slow ones: the doubling-bucket histogram put p95
	// and p99 in one bucket; order statistics tell them apart.
	r := newRecorder(400)
	for i := 0; i < 380; i++ {
		r.observe(100*time.Microsecond, 0)
	}
	for i := 0; i < 20; i++ {
		r.observe(time.Duration(2000+i)*time.Microsecond, 0)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 100 * time.Microsecond},
		{0.95, 100 * time.Microsecond},  // the 380th sample, the last fast one
		{0.97, 2007 * time.Microsecond}, // the 388th: the eighth slow one
	} {
		if got, err := r.quantile(tc.q); err != nil || got != tc.want {
			t.Errorf("quantile(%v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{199, 0.95, false},
		{200, 0.95, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{1, 0.5, true}, // the median is not a tail quantile
	} {
		_, err := uniform(tc.n).quantile(tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d q=%v: err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
		}
	}
	if _, err := newRecorder(0).quantile(0.5); err == nil {
		t.Error("quantile of no samples did not fail")
	}
	for _, q := range []float64{0, 1} {
		if _, err := uniform(10000).quantile(q); err == nil {
			t.Errorf("quantile(%v) did not fail", q)
		}
	}
}

func TestSliceRates(t *testing.T) {
	r := newRecorder(0)
	// 20 ops: ten complete 10 ms apart, then ten 40 ms apart, so the
	// window's first half runs at 100 ops/s and its second at 25 ops/s.
	var at time.Duration
	for i := 0; i < 20; i++ {
		if i < 10 {
			at += 10 * time.Millisecond
		} else {
			at += 40 * time.Millisecond
		}
		r.observe(time.Microsecond, at)
	}
	got := r.sliceRates(4)
	want := []float64{100, 100, 25, 25}
	if len(got) != len(want) {
		t.Fatalf("sliceRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("sliceRates = %v, want %v", got, want)
		}
	}
	if got := r.sliceRates(1); len(got) != 1 || math.Abs(got[0]-40) > 1e-9 {
		t.Errorf("one slice = %v, want [40] (20 ops in 0.5 s)", got)
	}
	few := newRecorder(0)
	few.observe(time.Microsecond, 100*time.Millisecond)
	few.observe(time.Microsecond, 200*time.Millisecond)
	if got := few.sliceRates(5); len(got) != 1 || math.Abs(got[0]-10) > 1e-9 {
		t.Errorf("2 ops in 5 slices = %v, want [10]", got)
	}
	if newRecorder(0).sliceRates(5) != nil {
		t.Error("no ops gave rates")
	}

	if m := median([]float64{50, 100, 0, 25, 5}); m != 25 {
		t.Errorf("median = %v, want 25", m)
	}
	if s := spreadPct([]float64{50, 100, 0, 25, 5}); s != 400 {
		t.Errorf("spreadPct = %v, want 400", s)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if median(nil) != 0 || spreadPct(nil) != 0 {
		t.Error("empty input is not 0")
	}
}
