package microsvc

import (
	"fmt"
	"testing"

	"securecloud/internal/shard"
)

func admReq(tenant, key string) request {
	return request{key: key, sealed: []byte{1}, meta: frameMeta{tenant: tenant}}
}

func TestAdmissionTokenBucketRefillAndBurst(t *testing.T) {
	a := newAdmission(AdmissionConfig{Default: TenantPolicy{Rate: 2, Burst: 5}})
	// First sight: full bucket (Burst).
	ts := a.state("t1")
	if ts.tokens != 5 {
		t.Fatalf("initial tokens = %d, want burst 5", ts.tokens)
	}
	// Drain via dispatch.
	for i := 0; i < 7; i++ {
		if shed, _ := a.offer(admReq("t1", fmt.Sprintf("k%d", i))); shed {
			t.Fatalf("offer %d unexpectedly shed", i)
		}
	}
	out := a.dispatch()
	if len(out) != 5 {
		t.Fatalf("dispatched %d, want 5 (token-bounded)", len(out))
	}
	if ts.tokens != 0 {
		t.Fatalf("tokens after drain = %d, want 0", ts.tokens)
	}
	// Refill adds Rate, capped at Burst.
	a.beginStep()
	if ts.tokens != 2 {
		t.Fatalf("tokens after one refill = %d, want 2", ts.tokens)
	}
	for i := 0; i < 10; i++ {
		a.beginStep()
	}
	if ts.tokens != 5 {
		t.Fatalf("tokens after many refills = %d, want burst cap 5", ts.tokens)
	}
}

func TestAdmissionWeightedFairDequeue(t *testing.T) {
	a := newAdmission(AdmissionConfig{
		Default: TenantPolicy{Weight: 1},
		Tenants: map[string]TenantPolicy{"heavy": {Weight: 3}},
	})
	for i := 0; i < 6; i++ {
		a.offer(admReq("heavy", fmt.Sprintf("h%d", i)))
		a.offer(admReq("light", fmt.Sprintf("l%d", i)))
	}
	a.beginStep()
	out := a.dispatch()
	if len(out) != 12 {
		t.Fatalf("dispatched %d, want 12", len(out))
	}
	// Round structure over sorted order {heavy, light}: 3 heavy, 1 light, per
	// round — so the first 8 dispatches hold 6 heavy and 2 light.
	heavy := 0
	for _, q := range out[:8] {
		if q.meta.tenant == "heavy" {
			heavy++
		}
	}
	if heavy != 6 {
		t.Fatalf("heavy in first 8 dispatches = %d, want 6 (3:1 weighting)", heavy)
	}
	// Deterministic: same offers, same order ⇒ identical dispatch sequence.
	b := newAdmission(AdmissionConfig{
		Default: TenantPolicy{Weight: 1},
		Tenants: map[string]TenantPolicy{"heavy": {Weight: 3}},
	})
	for i := 0; i < 6; i++ {
		b.offer(admReq("heavy", fmt.Sprintf("h%d", i)))
		b.offer(admReq("light", fmt.Sprintf("l%d", i)))
	}
	b.beginStep()
	out2 := b.dispatch()
	for i := range out {
		if out[i].key != out2[i].key {
			t.Fatalf("dispatch order diverged at %d: %q vs %q", i, out[i].key, out2[i].key)
		}
	}
}

func TestAdmissionShedAtExactlyFullTenantQueue(t *testing.T) {
	a := newAdmission(AdmissionConfig{Default: TenantPolicy{MaxQueue: 3, Rate: 2}, TickMillis: 1})
	for i := 0; i < 3; i++ {
		if shed, _ := a.offer(admReq("t", fmt.Sprintf("k%d", i))); shed {
			t.Fatalf("offer %d shed below the bound", i)
		}
	}
	shed, retry := a.offer(admReq("t", "k3"))
	if !shed {
		t.Fatal("offer at exactly-full queue not shed")
	}
	// retry-after = ceil((3+1)/2) = 2 steps × 1 sim-ms.
	if retry != 2 {
		t.Fatalf("retry-after = %v sim-ms, want 2", retry)
	}
	if a.depth() != 3 {
		t.Fatalf("depth = %d, want 3", a.depth())
	}
}

func TestAdmissionGlobalQueueBound(t *testing.T) {
	a := newAdmission(AdmissionConfig{Default: TenantPolicy{MaxQueue: 100}, MaxGlobalQueue: 4, TickMillis: 1})
	for i := 0; i < 4; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if shed, _ := a.offer(admReq(tenant, "k")); shed {
			t.Fatalf("offer %d shed below global bound", i)
		}
	}
	shed, retry := a.offer(admReq("t9", "k"))
	if !shed {
		t.Fatal("offer beyond global bound not shed")
	}
	if retry != 1 {
		t.Fatalf("retry-after = %v sim-ms, want 1 (unlimited-rate tenant)", retry)
	}
	snap := a.snapshot()
	if snap.Shed != 1 || snap.Queued != 4 {
		t.Fatalf("snapshot shed=%d queued=%d, want 1/4", snap.Shed, snap.Queued)
	}
}

func TestAdmissionRetryAfterCapped(t *testing.T) {
	a := newAdmission(AdmissionConfig{Default: TenantPolicy{MaxQueue: 1000, Rate: 1}, TickMillis: 2})
	for i := 0; i < 1000; i++ {
		a.offer(admReq("t", "k"))
	}
	_, retry := a.offer(admReq("t", "k"))
	if retry != float64(maxRetrySteps)*2 {
		t.Fatalf("retry-after = %v, want capped %v", retry, float64(maxRetrySteps)*2)
	}
}

func TestAdmissionHotKeySplit(t *testing.T) {
	a := newAdmission(AdmissionConfig{
		Default:       TenantPolicy{},
		HotKeyPerStep: 2,
		SplitWays:     2,
		SplitDepth:    3,
	})
	const n = 4
	cold := []int{0, 0, 0, 0}
	home := shard.Of("hot", n)

	// Below the per-step count the key stays home regardless of depth.
	deep := []int{9, 9, 9, 9}
	for i := 0; i < 2; i++ {
		if got := a.routeFor("hot", n, deep); got != home {
			t.Fatalf("dispatch %d routed to %d, want home %d", i, got, home)
		}
	}
	// Above the count but with a shallow home queue: still home.
	a.beginStep()
	for i := 0; i < 5; i++ {
		if got := a.routeFor("hot", n, cold); got != home {
			t.Fatalf("shallow-home dispatch %d routed to %d, want home %d", i, got, home)
		}
	}
	// Hot AND straggling: rotation across 2 ways starting at home.
	a.beginStep()
	for i := 0; i < 2; i++ {
		a.routeFor("hot", n, deep) // burn the per-step allowance
	}
	want := []int{home, (home + 1) % n, home, (home + 1) % n}
	for i, w := range want {
		if got := a.routeFor("hot", n, deep); got != w {
			t.Fatalf("split dispatch %d routed to %d, want %d", i, got, w)
		}
	}
	if a.splits != 4 {
		t.Fatalf("splits = %d, want 4", a.splits)
	}
	// Other keys are untouched.
	if got := a.routeFor("cold-key", n, deep); got != shard.Of("cold-key", n) {
		t.Fatalf("cold key rerouted to %d", got)
	}
}

func TestAdmissionDispatchBudget(t *testing.T) {
	a := newAdmission(AdmissionConfig{Default: TenantPolicy{Weight: 2}, DispatchPerStep: 3})
	for i := 0; i < 4; i++ {
		a.offer(admReq("a", fmt.Sprintf("a%d", i)))
		a.offer(admReq("b", fmt.Sprintf("b%d", i)))
	}
	out := a.dispatch()
	if len(out) != 3 {
		t.Fatalf("dispatched %d, want budget 3", len(out))
	}
	// Sorted order {a, b}, weight 2: a0 a1 b0.
	wantKeys := []string{"a0", "a1", "b0"}
	for i, w := range wantKeys {
		if out[i].key != w {
			t.Fatalf("dispatch %d = %q, want %q", i, out[i].key, w)
		}
	}
	if a.depth() != 5 {
		t.Fatalf("depth after budgeted dispatch = %d, want 5", a.depth())
	}
}
