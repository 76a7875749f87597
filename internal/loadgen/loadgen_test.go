package loadgen

import (
	"reflect"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket <=10
	}
	for i := 0; i < 9; i++ {
		h.Observe(50) // bucket <=100
	}
	h.Observe(5000) // overflow
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
	if q := h.Quantile(0.95); q != 100 {
		t.Fatalf("p95 = %d, want 100", q)
	}
	if q := h.Quantile(1.0); q != 5000 {
		t.Fatalf("p100 = %d, want observed max 5000", q)
	}
	if h.Max() != 5000 {
		t.Fatalf("max %d", h.Max())
	}
	want := []uint64{90, 9, 0, 1}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(SizeBounds())
	b := NewHistogram(SizeBounds())
	c := NewHistogram(SizeBounds())
	for i := int64(1); i <= 100; i++ {
		a.Observe(i * 17)
		if i%2 == 0 {
			b.Observe(i * 17)
		} else {
			c.Observe(i * 17)
		}
	}
	b.Merge(c)
	if !reflect.DeepEqual(a.BucketCounts(), b.BucketCounts()) {
		t.Fatalf("merge not exact: %v vs %v", a.BucketCounts(), b.BucketCounts())
	}
	if a.Max() != b.Max() || a.Count() != b.Count() {
		t.Fatal("merge lost count or max")
	}
}

// TestLatencyBoundsResolveTail: on a long-tailed sample the p50, p95 and
// p99 estimates land in distinct buckets, each within one sub-bucket
// (12.5%) above the true order statistic. The sample's p95 (~11.4 ms) and
// p99 (~13.9 ms) share the 8.2–16.4 ms octave — the doubling ladder this
// replaced reported both as 16.384 ms.
func TestLatencyBoundsResolveTail(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	sample := make([]int64, 1000)
	v := int64(100_000) // 100 µs, growing 0.5% per sample
	for i := range sample {
		sample[i] = v
		h.Observe(v)
		v += v / 200
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 < p95 && p95 < p99) {
		t.Fatalf("quantiles did not resolve: p50=%d p95=%d p99=%d", p50, p95, p99)
	}
	for _, q := range []struct {
		got   int64
		truth int64
	}{{p50, sample[499]}, {p95, sample[949]}, {p99, sample[989]}} {
		if q.got < q.truth || float64(q.got) > 1.125*float64(q.truth) {
			t.Fatalf("estimate %d outside [%d, +12.5%%]", q.got, q.truth)
		}
	}
}

// echoDriver answers every request on the step after it was sent, shedding
// every shedEvery-th request.
type echoDriver struct {
	nextID    uint64
	pending   map[int][]Reply
	inflight  map[int][]Reply
	shedEvery int
	sends     uint64
}

func newEchoDriver(shedEvery int) *echoDriver {
	return &echoDriver{pending: make(map[int][]Reply), inflight: make(map[int][]Reply), shedEvery: shedEvery}
}

func (d *echoDriver) Send(client int, tenant string, reqs []Request) ([]uint64, error) {
	ids := make([]uint64, len(reqs))
	for i := range reqs {
		d.nextID++
		d.sends++
		ids[i] = d.nextID
		shed := d.shedEvery > 0 && d.sends%uint64(d.shedEvery) == 0
		d.inflight[client] = append(d.inflight[client], Reply{ID: d.nextID, Shed: shed})
	}
	return ids, nil
}

func (d *echoDriver) Poll(client int) ([]Reply, error) {
	out := d.pending[client]
	delete(d.pending, client)
	return out, nil
}

func (d *echoDriver) Step() error {
	for c, reps := range d.inflight {
		d.pending[c] = append(d.pending[c], reps...)
	}
	d.inflight = make(map[int][]Reply)
	return nil
}

func testSpec() Spec {
	var tick int64
	return Spec{
		Clients:    4,
		Seed:       42,
		Keys:       16,
		Tenants:    []string{"a", "b"},
		PayloadMin: 32,
		PayloadMax: 512,
		Phases: []Phase{
			{Name: "warmup", Ticks: 3, PerClient: 2},
			{Name: "inject", Ticks: 5, PerClient: 4},
			{Name: "recover", Ticks: 3, PerClient: 1},
		},
		DrainTicks: 2,
		Now:        func() int64 { tick += 1500; return tick },
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err := Run(testSpec(), newEchoDriver(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testSpec(), newEchoDriver(5))
	if err != nil {
		t.Fatal(err)
	}
	wantSent := uint64(4 * (3*2 + 5*4 + 3*1))
	if r1.Sent != wantSent {
		t.Fatalf("sent %d, want %d", r1.Sent, wantSent)
	}
	if r1.Served+r1.Shed != r1.Sent || r1.Lost != 0 {
		t.Fatalf("served %d + shed %d != sent %d (lost %d)", r1.Served, r1.Shed, r1.Sent, r1.Lost)
	}
	if r1.Shed == 0 {
		t.Fatal("expected some shed replies")
	}
	if r1.Sent != r2.Sent || r1.Served != r2.Served || r1.Shed != r2.Shed || r1.BytesSent != r2.BytesSent {
		t.Fatalf("counters differ across identical runs: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(r1.Sizes.BucketCounts(), r2.Sizes.BucketCounts()) {
		t.Fatal("size histograms differ across identical runs")
	}
	if !reflect.DeepEqual(r1.PhaseSent, r2.PhaseSent) {
		t.Fatal("phase counters differ across identical runs")
	}
	if r1.PhaseSent["inject"] != uint64(4*5*4) {
		t.Fatalf("inject phase sent %d", r1.PhaseSent["inject"])
	}
	// Latency is wall-clock: with the injected clock every reply is
	// observed some fixed number of ticks after its send.
	if r1.Latency.Count() != r1.Sent {
		t.Fatalf("latency observations %d, want %d", r1.Latency.Count(), r1.Sent)
	}
}

func TestRunValidatesSpec(t *testing.T) {
	bad := []Spec{
		{Clients: 0, Keys: 1, PayloadMin: 1, PayloadMax: 1},
		{Clients: 1, Keys: 0, PayloadMin: 1, PayloadMax: 1},
		{Clients: 1, Keys: 1, PayloadMin: 8, PayloadMax: 4},
	}
	for i, spec := range bad {
		if _, err := Run(spec, newEchoDriver(0)); err == nil {
			t.Fatalf("spec %d should fail validation", i)
		}
	}
}

// openLoopSpec is testSpec with open-loop pacing under an injected clock:
// 4 clients at an aggregate 800 RPS over 10ms ticks — 2 requests per
// client per tick at multiplier 1, 8 during the 4× inject phase.
func openLoopSpec(rps float64) Spec {
	spec := testSpec()
	spec.OpenLoop = &OpenLoopSpec{TargetRPS: rps, TickMillis: 10}
	return spec
}

func TestRunOpenLoopDeterministicRate(t *testing.T) {
	r1, err := Run(openLoopSpec(800), newEchoDriver(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(openLoopSpec(800), newEchoDriver(5))
	if err != nil {
		t.Fatal(err)
	}
	// 800 RPS * 10ms / 4 clients = 2 per client per tick at multiplier 1:
	// warmup 3 ticks * 2 * 2, inject 5 ticks * 8 * 4... PerClient scales the
	// rate, so the phase plan is (3*2*2 + 5*2*4 + 3*2*1) per client.
	wantSent := uint64(4 * (3*2*2 + 5*2*4 + 3*2*1))
	if r1.Sent != wantSent {
		t.Fatalf("sent %d, want %d", r1.Sent, wantSent)
	}
	if r1.Sent != r2.Sent || r1.Served != r2.Served || r1.Shed != r2.Shed || r1.BytesSent != r2.BytesSent {
		t.Fatalf("open-loop counters differ across identical runs: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(r1.Sizes.BucketCounts(), r2.Sizes.BucketCounts()) {
		t.Fatal("open-loop size histograms differ across identical runs")
	}
	if r1.Lost != 0 || r1.Served+r1.Shed != r1.Sent {
		t.Fatalf("open-loop run lost replies: %+v", r1)
	}
}

// TestRunOpenLoopFractionalCredit pins the credit accumulator: a rate that
// works out to a fractional per-tick count must inject floor(rate*ticks)
// requests per client — fractions carry across ticks instead of rounding
// away (or up) every tick.
func TestRunOpenLoopFractionalCredit(t *testing.T) {
	var tick int64
	spec := Spec{
		Clients: 4, Seed: 7, Keys: 8, PayloadMin: 16, PayloadMax: 64,
		Phases:   []Phase{{Name: "steady", Ticks: 40, PerClient: 1}},
		OpenLoop: &OpenLoopSpec{TargetRPS: 350, TickMillis: 3},
		Now:      func() int64 { tick += 1000; return tick },
	}
	r, err := Run(spec, newEchoDriver(0))
	if err != nil {
		t.Fatal(err)
	}
	// 350 RPS * 3ms / 4 clients = 0.2625 per client per tick; over 40
	// ticks the credit sums to 10.5, so each client sends exactly 10.
	if want := uint64(4 * 10); r.Sent != want {
		t.Fatalf("sent %d, want %d", r.Sent, want)
	}
}

func TestRunOpenLoopValidatesRate(t *testing.T) {
	spec := testSpec()
	spec.OpenLoop = &OpenLoopSpec{TargetRPS: 0}
	if _, err := Run(spec, newEchoDriver(0)); err == nil {
		t.Fatal("zero target RPS should fail validation")
	}
}
