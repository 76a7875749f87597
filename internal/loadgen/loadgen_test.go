package loadgen

import (
	"reflect"
	"testing"
)

// count returns the number of observations h holds.
func count(h *Histogram) uint64 {
	var n uint64
	for _, c := range h.BucketCounts() {
		n += c
	}
	return n
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket <=10
	}
	for i := 0; i < 9; i++ {
		h.Observe(50) // bucket <=100
	}
	h.Observe(5000) // overflow
	if n := count(h); n != 100 {
		t.Fatalf("count %d", n)
	}
	want := []uint64{90, 9, 0, 1}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets %v, want %v", got, want)
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
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("identical runs differ: %+v vs %+v", r1, r2)
	}
	if r1.PhaseSent["inject"] != uint64(4*5*4) {
		t.Fatalf("inject phase sent %d", r1.PhaseSent["inject"])
	}
	if n := count(r1.Sizes); n != r1.Sent {
		t.Fatalf("size observations %d, want %d", n, r1.Sent)
	}
}

// faultyDriver answers like echoDriver but commits one fault, once:
// "replay" delivers a reply twice, "drop" never delivers one, and
// "reuse-id" assigns one request ID to two requests of a send.
type faultyDriver struct {
	*echoDriver
	fault string
	done  bool
}

func (d *faultyDriver) Send(client int, tenant string, reqs []Request) ([]uint64, error) {
	ids, err := d.echoDriver.Send(client, tenant, reqs)
	if d.fault == "reuse-id" && !d.done && len(ids) > 1 {
		d.done = true
		ids[1] = ids[0]
	}
	return ids, err
}

func (d *faultyDriver) Poll(client int) ([]Reply, error) {
	out, err := d.echoDriver.Poll(client)
	if len(out) > 0 && !d.done {
		switch d.fault {
		case "replay":
			d.done = true
			out = append(out, out[0])
		case "drop":
			d.done = true
			out = out[1:]
		}
	}
	return out, err
}

// TestRunRejectsUnmatchedReply: a reply that answers no outstanding
// request, or a request ID handed out twice, fails the run instead of
// breaking sent = served + shed + lost.
func TestRunRejectsUnmatchedReply(t *testing.T) {
	for _, fault := range []string{"replay", "reuse-id"} {
		if r, err := Run(testSpec(), &faultyDriver{echoDriver: newEchoDriver(5), fault: fault}); err == nil {
			t.Errorf("%s: run accepted: served %d + shed %d + lost %d for %d sent", fault, r.Served, r.Shed, r.Lost, r.Sent)
		}
	}
}

// TestRunCountsLost: a request that is never answered is counted as lost,
// and every sent request is accounted for exactly once.
func TestRunCountsLost(t *testing.T) {
	r, err := Run(testSpec(), &faultyDriver{echoDriver: newEchoDriver(5), fault: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lost != 1 {
		t.Fatalf("lost %d, want 1", r.Lost)
	}
	if r.Served+r.Shed+r.Lost != r.Sent {
		t.Fatalf("served %d + shed %d + lost %d != sent %d", r.Served, r.Shed, r.Lost, r.Sent)
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
