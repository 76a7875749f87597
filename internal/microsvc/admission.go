package microsvc

import (
	"math"
	"sort"
)

// This file implements the plane's tenant-aware admission controller
// (ROADMAP item 2): the front-end load manager that stands between the
// event bus and the replica fleet. Requests carry a tenant ID in the frame
// routing envelope; the controller runs one token bucket and one bounded
// FIFO queue per tenant, dequeues across tenants weighted-fair, bounds the
// global queued total, sheds overflow with an explicit reply carrying a
// deterministic retry-after (in sim-ms), and splits hot routing keys
// across replicas when their home replica is straggling.
//
// Determinism is the design constraint everything here bends around:
// every admission decision — admit, queue, shed, dispatch order, split
// target — is a pure function of the configuration, the arrival order on
// the bus, and the per-step replica-depth snapshot. Nothing reads the host
// clock, host scheduling, or map iteration order (tenants are kept in a
// sorted slice). A scenario run at Workers=8 therefore sheds exactly the
// same requests, in the same ticks, as the same scenario at Workers=1.

// TenantPolicy shapes one tenant's admission treatment.
type TenantPolicy struct {
	// Weight is the tenant's weighted-fair share: each dequeue round grants
	// the tenant up to Weight requests before the next tenant's turn.
	// Default 1.
	Weight int
	// Rate refills the tenant's token bucket by this many requests per
	// Step; a request is dispatched only against a token. 0 = unlimited
	// (no bucket — the tenant is bounded by queues and weights only).
	Rate int
	// Burst caps the bucket (default: Rate — no extra burst allowance).
	Burst int
	// MaxQueue bounds the tenant's admission queue; arrivals beyond it are
	// shed with a retry-after reply. Default DefaultTenantQueue.
	MaxQueue int
}

// DefaultTenantQueue bounds a tenant queue when the policy leaves MaxQueue
// zero.
const DefaultTenantQueue = 1024

// AdmissionConfig enables and shapes the admission controller of a
// ReplicaSet. The zero value is not meaningful — a nil *AdmissionConfig in
// ReplicaSetConfig disables admission entirely (the pre-admission fast
// path, byte-identical to the historical Step behaviour).
type AdmissionConfig struct {
	// Default is the policy applied to tenants not listed in Tenants —
	// including the default tenant "" that untagged requests carry.
	Default TenantPolicy
	// Tenants holds per-tenant policy overrides keyed by tenant ID.
	Tenants map[string]TenantPolicy
	// MaxGlobalQueue bounds the queued total across all tenant queues;
	// arrivals beyond it are shed regardless of per-tenant headroom.
	// 0 = no global bound.
	MaxGlobalQueue int
	// DispatchPerStep bounds how many requests one Step hands to the
	// replica fleet across all tenants. 0 = bounded by tokens only.
	DispatchPerStep int
	// TickMillis is the simulated duration of one Step, used to state
	// retry-after hints in sim-ms. Default 1.
	TickMillis float64
	// HotKeyPerStep enables hot-key splitting: once a routing key has been
	// dispatched more than this many times within one Step AND its home
	// replica's queue is at least SplitDepth deep, further requests for the
	// key rotate across SplitWays consecutive replicas instead of pinning
	// to the home. 0 disables splitting.
	HotKeyPerStep int
	// SplitWays is the number of replicas a hot key spreads over
	// (default 2; clamped to the live replica count).
	SplitWays int
	// SplitDepth is the home-replica queue depth at which a hot key is
	// considered straggling (default 1).
	SplitDepth int
}

// shedVerdict describes one shed decision: which request was rejected and
// the deterministic retry-after hint the front end replies with.
type shedVerdict struct {
	req          request
	retryAfterMS float64
}

// tenantState is the controller's per-tenant runtime: policy, bucket,
// queue and counters.
type tenantState struct {
	name   string
	pol    TenantPolicy
	tokens int
	queue  []request

	admitted   uint64
	dispatched uint64
	shed       uint64
}

// admission is the front-end load manager of one ReplicaSet. All methods
// are called from Step with the set's step serialization — the controller
// itself takes no locks and keeps no goroutines.
type admission struct {
	cfg     AdmissionConfig
	tenants map[string]*tenantState
	order   []string // tenant names, sorted — the deterministic iteration order
	queued  int      // total across tenant queues

	// Hot-key state: per-step dispatch counts and the per-key rotation
	// sequence that spreads a split key across replicas.
	hotCount map[string]int
	hotSeq   map[string]uint64
	splits   uint64
	shedAll  uint64

	// step numbers admission steps; each admitted request records the step
	// it arrived in, and dispatch turns the difference into a queue-wait
	// histogram (in steps — the caller scales by TickMillis for sim-ms).
	// Indexed by whole steps waited (index 0 unused: one step is the
	// floor), grown on demand — a dense slice instead of a map, so the
	// per-dispatch increment on the hot path hashes nothing.
	step      uint64
	latCounts []uint64
}

// newAdmission normalizes the configuration and returns an empty
// controller.
func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.TickMillis <= 0 {
		cfg.TickMillis = 1
	}
	if cfg.SplitWays <= 1 {
		cfg.SplitWays = 2
	}
	if cfg.SplitDepth <= 0 {
		cfg.SplitDepth = 1
	}
	return &admission{
		cfg:      cfg,
		tenants:  make(map[string]*tenantState),
		hotCount: make(map[string]int),
		hotSeq:   make(map[string]uint64),
	}
}

// observeWait counts one dispatched request that waited the given whole
// steps, growing the histogram as needed.
func (a *admission) observeWait(steps int) {
	for len(a.latCounts) <= steps {
		a.latCounts = append(a.latCounts, 0)
	}
	a.latCounts[steps]++
}

// normalizePolicy fills a policy's defaults.
func normalizePolicy(p TenantPolicy) TenantPolicy {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	if p.Burst <= 0 {
		p.Burst = p.Rate
	}
	if p.MaxQueue <= 0 {
		p.MaxQueue = DefaultTenantQueue
	}
	return p
}

// state returns (creating on first sight) the tenant's runtime. New
// tenants start with a full bucket and are inserted into the sorted order.
func (a *admission) state(tenant string) *tenantState {
	if ts, ok := a.tenants[tenant]; ok {
		return ts
	}
	pol, ok := a.cfg.Tenants[tenant]
	if !ok {
		pol = a.cfg.Default
	}
	pol = normalizePolicy(pol)
	ts := &tenantState{name: tenant, pol: pol, tokens: pol.Burst}
	a.tenants[tenant] = ts
	i := sort.SearchStrings(a.order, tenant)
	a.order = append(a.order, "")
	copy(a.order[i+1:], a.order[i:])
	a.order[i] = tenant
	return ts
}

// offer presents one arrival to the controller: it is either queued on its
// tenant's admission queue or shed. Shedding happens only here, at arrival
// — a request that makes it into a queue is eventually dispatched.
func (a *admission) offer(q request) (shed bool, retryAfterMS float64) {
	ts := a.state(q.meta.tenant)
	if len(ts.queue) >= ts.pol.MaxQueue ||
		(a.cfg.MaxGlobalQueue > 0 && a.queued >= a.cfg.MaxGlobalQueue) {
		ts.shed++
		a.shedAll++
		return true, a.retryAfter(ts)
	}
	q.admitStep = a.step
	ts.queue = append(ts.queue, q)
	ts.admitted++
	a.queued++
	return false, 0
}

// retryAfter computes the shed reply's deterministic hint: the simulated
// time the tenant's current queue needs to drain at its refill rate,
// rounded up to whole steps. A tenant without a bucket (unlimited rate)
// was shed by a queue bound alone and is told to retry next step.
func (a *admission) retryAfter(ts *tenantState) float64 {
	steps := 1
	if ts.pol.Rate > 0 {
		steps = (len(ts.queue) + ts.pol.Rate) / ts.pol.Rate // ceil((len+1)/rate)
		if steps < 1 {
			steps = 1
		}
	}
	if steps > maxRetrySteps {
		steps = maxRetrySteps
	}
	return float64(steps) * a.cfg.TickMillis
}

// maxRetrySteps caps retry-after hints so a deeply backlogged tenant is
// still told to come back within a bounded horizon.
const maxRetrySteps = 64

// beginStep starts a new admission step: buckets refill, per-step hot-key
// counts reset. (The hot-key rotation sequence persists across steps so a
// key that stays hot keeps rotating rather than re-hammering its home.)
func (a *admission) beginStep() {
	a.step++
	for _, name := range a.order {
		ts := a.tenants[name]
		if ts.pol.Rate <= 0 {
			continue
		}
		ts.tokens += ts.pol.Rate
		if ts.tokens > ts.pol.Burst {
			ts.tokens = ts.pol.Burst
		}
	}
	for k := range a.hotCount {
		delete(a.hotCount, k)
	}
}

// dispatch drains the tenant queues weighted-fair: repeated rounds over
// the sorted tenant order, each round granting a tenant up to Weight
// requests (bounded by its tokens and the global per-step budget), until
// no tenant can make progress. The returned order is the routing order —
// a pure function of queue contents and policies.
func (a *admission) dispatch() []request {
	budget := a.cfg.DispatchPerStep
	if budget <= 0 {
		budget = math.MaxInt
	}
	var out []request
	for budget > 0 {
		progress := false
		for _, name := range a.order {
			ts := a.tenants[name]
			take := ts.pol.Weight
			if take > len(ts.queue) {
				take = len(ts.queue)
			}
			if ts.pol.Rate > 0 && take > ts.tokens {
				take = ts.tokens
			}
			if take > budget {
				take = budget
			}
			if take <= 0 {
				continue
			}
			for _, q := range ts.queue[:take] {
				a.observeWait(int(a.step - q.admitStep + 1))
			}
			out = append(out, ts.queue[:take]...)
			ts.queue = append(ts.queue[:0], ts.queue[take:]...)
			if ts.pol.Rate > 0 {
				ts.tokens -= take
			}
			ts.dispatched += uint64(take)
			a.queued -= take
			budget -= take
			progress = true
			if budget == 0 {
				break
			}
		}
		if !progress {
			break
		}
	}
	return out
}

// routeFor picks the replica slot for one dispatched request: the key's
// home slot, unless the key is hot this step and its home replica is
// straggling — then the key rotates across SplitWays consecutive slots.
// depths is the per-replica queue-depth snapshot taken at the start of
// the step, so the decision is independent of serve parallelism.
func (a *admission) routeFor(key string, n int, depths []int) int {
	home := routeIndex(key, n)
	if a.cfg.HotKeyPerStep <= 0 || n <= 1 {
		return home
	}
	a.hotCount[key]++
	if a.hotCount[key] <= a.cfg.HotKeyPerStep || depths[home] < a.cfg.SplitDepth {
		return home
	}
	ways := a.cfg.SplitWays
	if ways > n {
		ways = n
	}
	seq := a.hotSeq[key]
	a.hotSeq[key] = seq + 1
	a.splits++
	return (home + int(seq%uint64(ways))) % n
}

// depth is the queued total across all tenant queues.
func (a *admission) depth() int { return a.queued }

// latencyPercentiles reduces the queue-wait histogram to p50/p95/max in
// sim-ms (waits are whole steps; one step of wait is the floor — a request
// dispatched in its arrival step waited one step).
func (a *admission) latencyPercentiles(tickMS float64) (p50, p95, max float64) {
	var total uint64
	last := 0
	for s, c := range a.latCounts {
		if c > 0 {
			total += c
			last = s
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	pick := func(q float64) float64 {
		want := uint64(math.Ceil(q * float64(total)))
		if want < 1 {
			want = 1
		}
		var seen uint64
		for s, c := range a.latCounts {
			seen += c
			if seen >= want {
				return float64(s) * tickMS
			}
		}
		return float64(last) * tickMS
	}
	return pick(0.50), pick(0.95), float64(last) * tickMS
}

// TenantSnapshot is one tenant's admission counters.
type TenantSnapshot struct {
	Admitted   uint64
	Dispatched uint64
	Shed       uint64
	Queued     int
	Tokens     int
}

// AdmissionSnapshot is a point-in-time view of the controller, taken
// between steps.
type AdmissionSnapshot struct {
	Queued   int
	Shed     uint64
	Splits   uint64
	ByTenant map[string]TenantSnapshot
}

// snapshot captures the controller state (called under the set mutex).
func (a *admission) snapshot() AdmissionSnapshot {
	s := AdmissionSnapshot{
		Queued:   a.queued,
		Shed:     a.shedAll,
		Splits:   a.splits,
		ByTenant: make(map[string]TenantSnapshot, len(a.order)),
	}
	for _, name := range a.order {
		ts := a.tenants[name]
		s.ByTenant[name] = TenantSnapshot{
			Admitted:   ts.admitted,
			Dispatched: ts.dispatched,
			Shed:       ts.shed,
			Queued:     len(ts.queue),
			Tokens:     ts.tokens,
		}
	}
	return s
}
