package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// defaultTarget is a conservative QoS target.
func defaultTarget() Target {
	return Target{MaxQueueDepth: 32, MinReplicas: 1, MaxReplicas: 16, ScaleInBelow: 4}
}

// fakeReplica is a controllable Replica.
type fakeReplica struct {
	id      string
	mu      sync.Mutex
	metrics Metrics
}

func (f *fakeReplica) ID() string { return f.id }

func (f *fakeReplica) Sample() Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.metrics
}

func (f *fakeReplica) set(m Metrics) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.metrics = m
}

// fakeLauncher mints replicas and records retirements.
type fakeLauncher struct {
	mu      sync.Mutex
	next    int
	retired []string
	fail    bool
}

func (l *fakeLauncher) Launch() (Replica, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fail {
		return nil, errors.New("capacity exhausted")
	}
	l.next++
	return &fakeReplica{id: fmt.Sprintf("r%02d", l.next), metrics: Metrics{Healthy: true}}, nil
}

func (l *fakeLauncher) Retire(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retired = append(l.retired, id)
	return nil
}

func healthy(id string, depth int) *fakeReplica {
	return &fakeReplica{id: id, metrics: Metrics{Healthy: true, QueueDepth: depth}}
}

func TestNewRequiresReplicas(t *testing.T) {
	if _, err := New(defaultTarget(), &fakeLauncher{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
}

func TestScaleOutOnDeepQueue(t *testing.T) {
	l := &fakeLauncher{}
	r := healthy("r00", 100)
	o, err := New(defaultTarget(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "scale-out" {
		t.Fatalf("actions = %+v", actions)
	}
	if o.Replicas() != 2 {
		t.Fatalf("Replicas = %d", o.Replicas())
	}
}

func TestScaleOutBoundedByMax(t *testing.T) {
	l := &fakeLauncher{}
	target := defaultTarget()
	target.MaxReplicas = 2
	o, err := New(target, l, healthy("r00", 100), healthy("r01", 100))
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("scaled beyond MaxReplicas: %+v", actions)
	}
}

func TestScaleInWhenIdle(t *testing.T) {
	l := &fakeLauncher{}
	o, err := New(defaultTarget(), l, healthy("r00", 0), healthy("r01", 0))
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "scale-in" {
		t.Fatalf("actions = %+v", actions)
	}
	if o.Replicas() != 1 {
		t.Fatalf("Replicas = %d", o.Replicas())
	}
	if len(l.retired) != 1 || l.retired[0] != "r01" {
		t.Fatalf("retired = %v", l.retired)
	}
}

func TestScaleInRespectsMin(t *testing.T) {
	l := &fakeLauncher{}
	o, err := New(defaultTarget(), l, healthy("r00", 0))
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 || o.Replicas() != 1 {
		t.Fatalf("scaled below MinReplicas: %+v", actions)
	}
}

func TestRestartUnhealthyReplicaSameTick(t *testing.T) {
	l := &fakeLauncher{}
	sick := healthy("r-sick", 5)
	sick.set(Metrics{Healthy: false})
	o, err := New(defaultTarget(), l, sick)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	// Detection latency is zero ticks: the same Observe that saw the
	// failure replaced the replica.
	if len(actions) != 1 || actions[0].Kind != "restart" || actions[0].Tick != 1 {
		t.Fatalf("actions = %+v", actions)
	}
	if o.Replicas() != 1 {
		t.Fatalf("Replicas = %d", o.Replicas())
	}
	if len(l.retired) != 1 || l.retired[0] != "r-sick" {
		t.Fatalf("retired = %v", l.retired)
	}
}

func TestLaunchFailureSurfaced(t *testing.T) {
	l := &fakeLauncher{fail: true}
	o, err := New(defaultTarget(), l, healthy("r00", 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Observe(); err == nil {
		t.Fatal("launch failure swallowed")
	}
}

func TestAdaptationLog(t *testing.T) {
	l := &fakeLauncher{}
	r := healthy("r00", 100)
	o, _ := New(defaultTarget(), l, r)
	if _, err := o.Observe(); err != nil {
		t.Fatal(err)
	}
	r.set(Metrics{Healthy: true, QueueDepth: 0})
	// New replica is idle too: scale back in.
	if _, err := o.Observe(); err != nil {
		t.Fatal(err)
	}
	log := o.Log()
	if len(log) != 2 || log[0].Kind != "scale-out" || log[1].Kind != "scale-in" {
		t.Fatalf("log = %+v", log)
	}
}

func TestClosedLoopConvergesUnderLoadSwing(t *testing.T) {
	// Simulated load swing: a burst arrives, the orchestrator scales out
	// until per-replica depth is within target, then the burst drains and
	// it scales back to the minimum.
	l := &fakeLauncher{}
	first := healthy("r00", 0)
	o, err := New(defaultTarget(), l, first)
	if err != nil {
		t.Fatal(err)
	}
	pending := 600 // queued requests
	for tick := 0; tick < 100; tick++ {
		// Distribute pending load over replicas, serve 8/replica/tick.
		n := o.Replicas()
		per := pending / n
		o.mu.Lock()
		for _, r := range o.replicas {
			r.(*fakeReplica).set(Metrics{Healthy: true, QueueDepth: per})
		}
		o.mu.Unlock()
		served := 8 * n
		if served > pending {
			served = pending
		}
		pending -= served
		if _, err := o.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	if pending != 0 {
		t.Fatalf("%d requests still pending", pending)
	}
	if got := o.Replicas(); got != 1 {
		t.Fatalf("did not scale back to minimum: %d replicas", got)
	}
	sawOut := false
	for _, a := range o.Log() {
		if a.Kind == "scale-out" {
			sawOut = true
		}
	}
	if !sawOut {
		t.Fatal("burst never triggered scale-out")
	}
}

func TestSlowReplicaRestarted(t *testing.T) {
	l := &fakeLauncher{}
	slow := healthy("r-slow", 5)
	slow.set(Metrics{Healthy: true, QueueDepth: 5, ServiceCycles: 500_000})
	target := defaultTarget()
	target.MaxServiceCycles = 200_000
	o, err := New(target, l, slow)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "restart" || actions[0].ReplicaID != "r-slow" {
		t.Fatalf("actions = %+v", actions)
	}
	if len(l.retired) != 1 || l.retired[0] != "r-slow" {
		t.Fatalf("retired = %v", l.retired)
	}
}

func TestSlowRuleDisabledByDefault(t *testing.T) {
	l := &fakeLauncher{}
	slow := healthy("r-slow", 5)
	slow.set(Metrics{Healthy: true, QueueDepth: 5, ServiceCycles: 1 << 40})
	o, err := New(defaultTarget(), l, slow)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("zero MaxServiceCycles still restarted: %+v", actions)
	}
}

func TestTraceDeterministicRendering(t *testing.T) {
	l := &fakeLauncher{}
	r := healthy("r00", 100)
	o, _ := New(defaultTarget(), l, r)
	if _, err := o.Observe(); err != nil {
		t.Fatal(err)
	}
	r.set(Metrics{Healthy: false})
	if _, err := o.Observe(); err != nil {
		t.Fatal(err)
	}
	trace := o.Trace()
	want := []string{
		"t0001 scale-out (queue depth 100 > 32)",
		"t0002 restart r00 (replica unhealthy)",
		"t0002 scale-in r01 (mean queue depth 0 < 4)",
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, trace[i], want[i])
		}
	}
}

// TestScaleOutOnShedRate: an admission-controlled service keeps queues
// shallow, so overload surfaces as shed rate, not queue depth. The shed
// rule scales out with a deterministic reason string.
func TestScaleOutOnShedRate(t *testing.T) {
	l := &fakeLauncher{}
	r := &fakeReplica{id: "r00", metrics: Metrics{Healthy: true, QueueDepth: 2, Shed: 40}}
	target := defaultTarget()
	target.MaxShedPerTick = 16
	o, err := New(target, l, r)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "scale-out" {
		t.Fatalf("actions = %+v", actions)
	}
	if want := "shed 40 > 16 per tick"; actions[0].Reason != want {
		t.Fatalf("reason = %q, want %q", actions[0].Reason, want)
	}
	// Zero MaxShedPerTick disables the rule entirely.
	o2, err := New(defaultTarget(), l, &fakeReplica{id: "r01",
		metrics: Metrics{Healthy: true, QueueDepth: 2, Shed: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	actions, err = o2.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("shed rule fired while disabled: %+v", actions)
	}
}

// TestNoScaleInWhileShedding: shallow bounded queues must not trigger
// scale-in while the front end is actively rejecting work.
func TestNoScaleInWhileShedding(t *testing.T) {
	l := &fakeLauncher{}
	a := &fakeReplica{id: "r00", metrics: Metrics{Healthy: true, QueueDepth: 0, Shed: 5}}
	b := &fakeReplica{id: "r01", metrics: Metrics{Healthy: true, QueueDepth: 0, Shed: 5}}
	target := defaultTarget()
	target.MaxShedPerTick = 100 // shed below the scale-OUT threshold…
	o, err := New(target, l, a, b)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("scaled while shedding: %+v", actions) // …but still no scale-in
	}
	// Once shedding stops, the idle fleet contracts as before.
	a.set(Metrics{Healthy: true})
	b.set(Metrics{Healthy: true})
	actions, err = o.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "scale-in" {
		t.Fatalf("actions = %+v", actions)
	}
}
