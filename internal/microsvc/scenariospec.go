package microsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"securecloud/internal/attest"
	"securecloud/internal/cluster"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/genpack"
	"securecloud/internal/kvstore"
	"securecloud/internal/orchestrator"
	"securecloud/internal/sim"
	"securecloud/internal/smartgrid"
)

// This file is the declarative fault-scenario engine: a ScenarioSpec is
// pure data — tenant load profiles, a fault table, the admission and retry
// configuration, and an assertion table — and RunSpec executes any spec
// through one lab: newLab validates the spec and boots its plane, step runs
// one tick, and result folds the metric table. The four orchestrator
// scenarios (DefaultScenarios) are plain specs run through this engine, and
// a new scenario is a ~20-line literal in scenariolab.go.

// TenantLoad is one tenant's deterministic load schedule. The zero tenant
// name sends untagged requests (tenant ""); the admission controller, when
// configured, accounts every tenant by name.
type TenantLoad struct {
	Tenant string
	// BaseLoad is requests per tick (uniform profile), the mean arrival
	// rate (genpack-batch) or the fleet size (smartgrid-stream).
	BaseLoad int
	// Keys / KeyPrefix span the routing-key space: KeyPrefix + %03d.
	Keys      int
	KeyPrefix string
	BodyBytes int
	// Profile selects the generator: "" = uniform random keys (the legacy
	// schedule), "genpack-batch" = bursty Poisson batch arrivals from a
	// genpack trace, "smartgrid-stream" = one request per meter reading
	// from a smartgrid fleet, keyed by feeder, with a theft detector and
	// a forecaster consuming the same readings client-side.
	Profile string

	// Load spike: BaseLoad × SpikeFactor during [SpikeAt, SpikeAt+SpikeTicks).
	SpikeAt     int
	SpikeTicks  int
	SpikeFactor int
	// Hot-key skew: from SkewAt on, SkewPercent% of requests use SkewKey.
	SkewAt      int
	SkewPercent int
	SkewKey     string
}

// FaultSpec is one injected infrastructure fault.
type FaultSpec struct {
	// Kind is "crash" (replica dies), "slow" (replica charged Extra cycles
	// per request — a degraded NIC or noisy neighbour), "crash-state"
	// (replica dies AND the durable store loses all in-memory state, then
	// recovers from snapshot + WAL tail; needs spec.Durability), "revoke"
	// (the KeyBroker revokes the service — replacement replicas are denied
	// keys and fail closed) or "reinstate" (re-registers the service,
	// letting replacements re-attest).
	//
	// Cluster scenarios (spec.Cluster set) add the node-level kinds:
	// "node-crash" (node Node goes down, its replicas crash and are
	// rescheduled to surviving nodes), "partition" (node Node is cut off —
	// requests to its replicas shed deterministically until the
	// orchestrator converges on the reachable side), "heal" (reverses a
	// partition) and "byzantine" (the registry serves node Node tampered
	// chunks — its pulls fail closed and the node isolates).
	Kind    string
	At      int // injection tick
	Replica int // routing-order index at injection time
	Node    int // cluster node index, for the node-level kinds
	Extra   sim.Cycles
}

// Assertion bounds one result metric; the bench harness turns failures
// into gate problems. Build with AtLeast/AtMost/Between/Equals.
type Assertion struct {
	Metric string
	Min    float64
	Max    float64
}

// AtLeast asserts metric ≥ v.
func AtLeast(metric string, v float64) Assertion {
	return Assertion{Metric: metric, Min: v, Max: math.Inf(1)}
}

// AtMost asserts metric ≤ v.
func AtMost(metric string, v float64) Assertion {
	return Assertion{Metric: metric, Min: math.Inf(-1), Max: v}
}

// Equals asserts metric == v (exactly — these are deterministic figures).
func Equals(metric string, v float64) Assertion {
	return Assertion{Metric: metric, Min: v, Max: v}
}

// ScenarioSpec is one declarative fault-injection experiment. Everything
// that shapes the simulated figures is data in this struct; Workers is
// execution-only and must never change any figure.
type ScenarioSpec struct {
	Name string
	Seed int64
	// Ticks is the closed-loop length. WarmupTicks and InjectTicks split
	// it into the three phases of a fault experiment — warmup
	// [1, WarmupTicks], inject (WarmupTicks, WarmupTicks+InjectTicks],
	// recovery (the rest) — for the shed_phase_* metrics. Zero WarmupTicks
	// disables phase accounting.
	Ticks       int
	WarmupTicks int
	InjectTicks int

	Replicas      int
	Workers       int // execution-only
	TickMillis    float64
	RequestCycles sim.Cycles
	Target        orchestrator.Target

	// Admission enables the tenant-aware admission controller; Retry
	// enables deterministic client retry honoring shed retry-after hints.
	Admission *AdmissionConfig
	Retry     *RetryPolicy

	// Durability attaches a durable sealed store mirroring the request
	// stream (see DurabilitySpec); required by "crash-state" faults and
	// not supported together with Cluster.
	Durability *DurabilitySpec

	// Cluster places replicas on a simulated multi-node cluster (container
	// boots through per-node links and caches, locality-aware placement);
	// nil keeps the single-node direct-mode plane. Required by the
	// node-level fault kinds.
	Cluster *ClusterSpec

	Tenants []TenantLoad
	Faults  []FaultSpec
	Assert  []Assertion
}

// InjectTick returns the spec's first fault-injection tick (the earliest
// of fault At, tenant SpikeAt and tenant SkewAt), or -1 for a fault-free
// run. Adaptation latency is measured from it.
func (spec ScenarioSpec) InjectTick() int {
	first := -1
	consider := func(at int) {
		if at > 0 && (first < 0 || at < first) {
			first = at
		}
	}
	for _, tl := range spec.Tenants {
		consider(tl.SpikeAt)
		consider(tl.SkewAt)
	}
	for _, f := range spec.Faults {
		consider(f.At)
	}
	return first
}

// WithoutAdmission returns the spec with admission, retry and assertions
// stripped — the ungoverned control arm of the overload contrast the
// bench harness runs alongside the governed spec.
func (spec ScenarioSpec) WithoutAdmission() ScenarioSpec {
	spec.Admission = nil
	spec.Retry = nil
	spec.Assert = nil
	spec.Name += "-noadm"
	return spec
}

// The ways validate rejects a spec; each error it returns wraps one.
var (
	errUnderspecified       = errors.New("underspecified")
	errClusterAndDurability = errors.New("cluster mode has no durable store")
	errUnknownFault         = errors.New("unknown fault kind")
	errFaultOutsideRun      = errors.New("fault tick outside the run")
	errFaultNeedsDurability = errors.New("fault kind needs Durability")
	errFaultNeedsCluster    = errors.New("fault kind needs Cluster")
)

// validate rejects, before anything boots, a spec the lab would otherwise
// misrun: a fault that can never fire (misspelt kind, tick outside
// [1, Ticks]) would be skipped silently, and one whose plane is missing
// would fail only when its tick arrives.
func (spec ScenarioSpec) validate() error {
	if spec.Ticks <= 0 || spec.Replicas <= 0 || len(spec.Tenants) == 0 {
		return fmt.Errorf("microsvc: scenario %q %w", spec.Name, errUnderspecified)
	}
	if spec.Cluster != nil && spec.Durability != nil {
		return fmt.Errorf("microsvc: scenario %q: %w", spec.Name, errClusterAndDurability)
	}
	for _, f := range spec.Faults {
		var err error
		switch f.Kind {
		case "crash", "slow", "revoke", "reinstate":
		case "crash-state":
			if spec.Durability == nil {
				err = errFaultNeedsDurability
			}
		case "node-crash", "partition", "heal", "byzantine":
			if spec.Cluster == nil {
				err = errFaultNeedsCluster
			}
		default:
			err = errUnknownFault
		}
		if err == nil && (f.At < 1 || f.At > spec.Ticks) {
			err = errFaultOutsideRun
		}
		if err != nil {
			return fmt.Errorf("microsvc: scenario %q: %w: %q at t%d", spec.Name, err, f.Kind, f.At)
		}
	}
	return nil
}

// phase names the fault-experiment phase tick t falls in, or "" when the
// spec keeps no phase accounting (zero WarmupTicks).
func (spec ScenarioSpec) phase(t int) string {
	switch {
	case spec.WarmupTicks <= 0:
		return ""
	case t <= spec.WarmupTicks:
		return "warmup"
	case t <= spec.WarmupTicks+spec.InjectTicks:
		return "inject"
	default:
		return "recover"
	}
}

// tenantGen drives one tenant's load schedule: the per-tenant RNG plus
// whatever profile state (a genpack arrival trace, a smartgrid fleet and
// its client-side analytics) the profile needs.
type tenantGen struct {
	load TenantLoad
	rng  *rand.Rand

	// genpack-batch: arrivals per tick, materialized once.
	batchAt map[int]int

	// smartgrid-stream: the fleet plus the detect/forecast consumers.
	fleet     *smartgrid.Fleet
	det       *smartgrid.TheftDetector
	fc        *smartgrid.Forecaster
	alerts    int
	forecasts int
}

func newTenantGen(tl TenantLoad, seed int64, ticks int) (*tenantGen, error) {
	if tl.KeyPrefix == "" {
		tl.KeyPrefix = "k-"
	}
	g := &tenantGen{load: tl, rng: sim.NewRand(seed)}
	switch tl.Profile {
	case "":
		if tl.BaseLoad <= 0 || tl.Keys <= 0 {
			return nil, fmt.Errorf("microsvc: tenant %q underspecified", tl.Tenant)
		}
	case "genpack-batch":
		if tl.BaseLoad <= 0 {
			return nil, fmt.Errorf("microsvc: tenant %q needs a BaseLoad arrival rate", tl.Tenant)
		}
		cfg := genpack.DefaultTrace(seed)
		cfg.Ticks = int64(ticks)
		cfg.ArrivalsPerTick = float64(tl.BaseLoad)
		g.batchAt = make(map[int]int)
		for _, a := range genpack.GenerateTrace(cfg) {
			// Trace ticks are 0-based; scenario ticks are 1-based.
			g.batchAt[int(a.Tick)+1]++
		}
	case "smartgrid-stream":
		if tl.BaseLoad <= 0 {
			return nil, fmt.Errorf("microsvc: tenant %q needs a BaseLoad fleet size", tl.Tenant)
		}
		fcfg := smartgrid.FleetConfig{
			Seed:            seed,
			Meters:          tl.BaseLoad,
			MetersPerFeeder: 8,
			TicksPerDay:     96,
			BaseLoadKW:      0.8,
		}
		g.fleet = smartgrid.NewFleet(fcfg)
		// One meter under-reports from the start: ground truth for the
		// detector riding along on the stream.
		g.fleet.InjectTheft(3, 1, 0.4)
		g.det = smartgrid.NewTheftDetector()
		g.det.WindowTicks = 12
		g.fc = smartgrid.NewForecaster(12)
	default:
		return nil, fmt.Errorf("microsvc: tenant %q has unknown profile %q", tl.Tenant, tl.Profile)
	}
	return g, nil
}

// requests produces the tenant's deterministic batch for tick t.
func (g *tenantGen) requests(t int) []PlaneRequest {
	tl := g.load
	switch tl.Profile {
	case "genpack-batch":
		n := g.batchAt[t]
		reqs := make([]PlaneRequest, n)
		for i := range reqs {
			key := fmt.Sprintf("%s%03d", tl.KeyPrefix, g.rng.Intn(max(tl.Keys, 1)))
			body := make([]byte, tl.BodyBytes+i%33)
			g.rng.Read(body)
			reqs[i] = PlaneRequest{Key: key, Body: body}
		}
		return reqs
	case "smartgrid-stream":
		readings, feederKW := g.fleet.Tick(int64(t))
		if alerts := g.det.Observe(int64(t), readings, feederKW); len(alerts) > 0 {
			g.alerts += len(alerts)
		}
		var totalKW float64
		for _, r := range readings {
			totalKW += r.PowerKW
		}
		g.fc.Observe(int64(t), totalKW)
		if _, err := g.fc.Forecast(int64(t) + 1); err == nil {
			g.forecasts++
		}
		reqs := make([]PlaneRequest, len(readings))
		for i, r := range readings {
			body := make([]byte, tl.BodyBytes)
			g.rng.Read(body)
			reqs[i] = PlaneRequest{Key: r.Feeder, Body: body}
		}
		return reqs
	default: // uniform — the legacy schedule, RNG-stream identical
		n := tl.BaseLoad
		if tl.SpikeAt > 0 && t >= tl.SpikeAt && t < tl.SpikeAt+tl.SpikeTicks {
			n *= tl.SpikeFactor
		}
		reqs := make([]PlaneRequest, n)
		for i := range reqs {
			key := fmt.Sprintf("%s%03d", tl.KeyPrefix, g.rng.Intn(tl.Keys))
			if tl.SkewAt > 0 && t >= tl.SkewAt && g.rng.Intn(100) < tl.SkewPercent {
				key = tl.SkewKey
			}
			body := make([]byte, tl.BodyBytes+i%33)
			g.rng.Read(body)
			reqs[i] = PlaneRequest{Key: key, Body: body}
		}
		return reqs
	}
}

// RunSpec executes one declarative scenario and returns its deterministic
// result. Every figure in the result is a pure function of the spec.
func RunSpec(spec ScenarioSpec) (ScenarioResult, error) {
	l, err := newLab(spec)
	if err != nil {
		return ScenarioResult{}, err
	}
	defer l.close()
	for t := 1; t <= spec.Ticks; t++ {
		if err := l.step(t); err != nil {
			return ScenarioResult{}, fmt.Errorf("microsvc: scenario %q t%d: %w", spec.Name, t, err)
		}
	}
	return l.result(), nil
}

// lab is one scenario run in progress: the plane its spec boots, one load
// generator per tenant, the adaptation trace, and the metric table every
// figure of the run is counted into.
type lab struct {
	spec   ScenarioSpec
	kb     *attest.KeyBroker
	keys   attest.ServiceKeys
	policy attest.Policy // what "reinstate" re-registers
	rs     *ReplicaSet
	cs     *ClusterSet        // nil outside cluster mode
	dur    *durabilityHarness // nil without spec.Durability
	o      *orchestrator.Orchestrator
	client *PlaneClient
	gens   []*tenantGen

	trace  []string
	m      map[string]float64
	sentBy map[string]int // client sends per wire tenant name
}

// newLab validates spec and boots the plane it describes: the service keys
// and key broker, the durable store when spec.Durability is set, the
// replica set (single-node, or placed on a simulated cluster), the
// orchestrator and the client.
func newLab(spec ScenarioSpec) (_ *lab, err error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	l := &lab{
		spec:   spec,
		m:      map[string]float64{"sent": 0, "replies": 0, "launch_denied": 0, "first_reaction_tick": -1},
		sentBy: make(map[string]int),
	}
	if spec.WarmupTicks > 0 {
		for _, p := range []string{"warmup", "inject", "recover"} {
			l.m["shed_phase_"+p], l.m["served_phase_"+p] = 0, 0
		}
	}
	for i, tl := range spec.Tenants {
		// Tenant 0 inherits the spec seed unchanged, so a single-tenant
		// spec replays the exact RNG stream of the pre-engine scenarios.
		g, err := newTenantGen(tl, spec.Seed+int64(i)*7919, spec.Ticks)
		if err != nil {
			return nil, err
		}
		l.gens = append(l.gens, g)
	}
	defer func() {
		if err != nil {
			l.close()
		}
	}()

	bus := eventbus.New()
	svc := attest.NewService()
	l.kb = attest.NewKeyBroker(svc)
	var appRoot cryptbox.Key
	appRoot[0], appRoot[1] = 0xA7, byte(spec.Seed)
	inTopic, outTopic := "plane/req", "plane/resp"
	if l.keys, err = NewServiceKeys(appRoot, scenarioService, inTopic, outTopic); err != nil {
		return nil, err
	}
	// The handler echoes a fixed-size ack; the modeled per-request compute
	// comes from RequestCycles, charged inside the replica's span.
	handler := func(req []byte) ([]byte, error) { return []byte{byte(len(req))}, nil }
	rsCfg := ReplicaSetConfig{
		Replicas:      spec.Replicas,
		Workers:       spec.Workers,
		InTopic:       inTopic,
		OutTopic:      outTopic,
		TickBudget:    sim.MillisToCycles(spec.TickMillis),
		RequestCycles: spec.RequestCycles,
		Admission:     spec.Admission,
	}
	if spec.Cluster != nil {
		// Cluster mode: container boots placed on simulated nodes; the
		// key-release policy pins the image's expected measurement.
		if l.cs, l.policy, err = buildClusterPlane(spec, bus, svc, l.kb, l.keys, handler, rsCfg); err != nil {
			return nil, err
		}
		l.rs = l.cs.ReplicaSet
		l.m["launch_failed"] = 0
		// The construction-time placements (front-end gateway + initial
		// replicas) open the trace at tick zero.
		for _, ev := range l.cs.DrainEvents() {
			l.logf(0, "%s", ev)
		}
	} else {
		l.policy = attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner(scenarioService)}}
		l.kb.Register(scenarioService, l.policy, l.keys)
		if spec.Durability != nil {
			if l.dur, err = newDurabilityHarness(spec, svc, l.kb, l.m); err != nil {
				return nil, err
			}
		}
		if l.rs, err = NewReplicaSet(bus, svc, l.kb, scenarioService, handler, rsCfg); err != nil {
			return nil, err
		}
	}
	if l.o, err = orchestrator.New(spec.Target, l.rs, l.rs.ReplicaHandles()...); err != nil {
		return nil, err
	}
	if l.client, err = NewPlaneClient(bus, scenarioService, l.keys, inTopic, outTopic); err != nil {
		return nil, err
	}
	if spec.Retry != nil {
		l.client.EnableRetry(*spec.Retry)
	}
	return l, nil
}

// close stops the client and the replica set.
func (l *lab) close() {
	if l.client != nil {
		l.client.Close()
	}
	if l.rs != nil {
		l.rs.Stop()
	}
}

// logf appends one trace line stamped with tick t.
func (l *lab) logf(t int, format string, args ...any) {
	l.trace = append(l.trace, fmt.Sprintf("t%04d ", t)+fmt.Sprintf(format, args...))
}

// step runs tick t. In order: inject due faults, re-send due client
// retries, send every tenant's batch, Step the replica set, Observe the
// orchestrator, poll replies, record the tick's trace line.
func (l *lab) step(t int) error {
	spec := l.spec
	now := float64(t) * spec.TickMillis
	for _, f := range spec.Faults {
		if f.At != t {
			continue
		}
		if err := l.inject(t, f); err != nil {
			return err
		}
	}
	if spec.Retry != nil {
		if _, err := l.client.DueRetries(now); err != nil {
			return err
		}
	}
	if err := l.send(t); err != nil {
		return err
	}

	st, err := l.rs.Step()
	if err != nil {
		return err
	}
	if p := spec.phase(t); p != "" {
		l.m["shed_phase_"+p] += float64(st.Shed)
		l.m["served_phase_"+p] += float64(st.Served)
	}
	actions, err := l.observe(t)
	if err != nil {
		return err
	}
	if l.cs != nil {
		for _, ev := range l.cs.DrainEvents() {
			l.logf(t, "%s", ev)
		}
	}
	if inject := spec.InjectTick(); len(actions) > 0 && l.m["first_reaction_tick"] < 0 && (inject < 0 || t >= inject) {
		l.m["first_reaction_tick"] = float64(t)
	}
	replies, err := l.client.Poll(now)
	if err != nil {
		return err
	}
	for _, rep := range replies {
		if !rep.Shed {
			l.m["replies"]++
		}
	}

	line := fmt.Sprintf("replicas=%d backlog=%d", l.o.Replicas(), l.rs.Backlog())
	if spec.Admission != nil {
		line += fmt.Sprintf(" shed=%d", st.Shed)
	}
	if len(actions) > 0 {
		parts := make([]string, len(actions))
		for i, a := range actions {
			parts[i] = a.String()
		}
		line += " | " + strings.Join(parts, "; ")
	}
	l.logf(t, "%s", line)
	return nil
}

// inject applies one due fault and records it in the trace. validate has
// already checked that the spec carries what the fault's kind needs.
func (l *lab) inject(t int, f FaultSpec) error {
	switch f.Kind {
	case "crash":
		if id := l.rs.InjectCrash(f.Replica); id != "" {
			l.logf(t, "inject crash %s", id)
		}
	case "slow":
		if id := l.rs.InjectSlow(f.Replica, f.Extra); id != "" {
			l.logf(t, "inject slow %s +%d", id, f.Extra)
		}
	case "crash-state":
		if id := l.rs.InjectCrash(f.Replica); id != "" {
			l.logf(t, "inject crash-state %s", id)
		}
		line, err := l.dur.crash()
		if err != nil {
			return err
		}
		l.logf(t, "%s", line)
	case "revoke":
		l.kb.Revoke(scenarioService)
		l.logf(t, "inject revoke %s", scenarioService)
	case "reinstate":
		l.kb.Register(scenarioService, l.policy, l.keys)
		l.logf(t, "reinstate %s", scenarioService)
	case "node-crash":
		name, ids := l.cs.CrashNode(f.Node)
		l.logf(t, "inject node-crash %s (%d replicas)", name, len(ids))
	case "partition":
		name, ids := l.cs.PartitionNode(f.Node)
		l.logf(t, "inject partition %s (%d replicas)", name, len(ids))
	case "heal":
		l.logf(t, "heal %s", l.cs.HealNode(f.Node))
	case "byzantine":
		l.logf(t, "inject byzantine registry for %s", l.cs.SetByzantineNode(f.Node))
	}
	return nil
}

// send sends every tenant's batch for tick t and mirrors the requests into
// the durable store, when there is one.
func (l *lab) send(t int) error {
	var pairs []kvstore.Pair
	for _, g := range l.gens {
		reqs := g.requests(t)
		if len(reqs) == 0 {
			continue
		}
		if _, err := l.client.SendTenantIDs(g.load.Tenant, reqs); err != nil {
			return err
		}
		l.m["sent"] += float64(len(reqs))
		l.sentBy[g.load.Tenant] += len(reqs)
		if l.dur != nil {
			for _, rq := range reqs {
				pairs = append(pairs, kvstore.Pair{Key: g.load.Tenant + "/" + rq.Key, Value: rq.Body})
			}
		}
	}
	if l.dur == nil {
		return nil
	}
	lines, err := l.dur.tick(t, pairs)
	for _, line := range lines {
		l.logf(t, "%s", line)
	}
	return err
}

// observe runs the orchestrator's monitoring pass. A revoked service
// denies keys to replacement replicas: the launch fails closed, the dead
// replica stays down, and the retry next tick either re-attests (after a
// reinstate) or is denied again. Cluster mode adds three more fail-closed
// launch outcomes the run survives: a pull rejecting tampered chunks (the
// node isolates and placement routes around it next tick), no node being
// eligible for placement, and an unreachable node. Any other error is
// fatal.
func (l *lab) observe(t int) ([]orchestrator.Action, error) {
	actions, err := l.o.Observe()
	reason := ""
	switch {
	case err == nil:
		return actions, nil
	case errors.Is(err, attest.ErrServiceRevoked):
		l.m["launch_denied"]++
		l.logf(t, "launch denied (revoked)")
		return actions, nil
	case l.cs == nil:
		return nil, err
	case errors.Is(err, container.ErrChunkVerify):
		reason = "chunk verify"
	case errors.Is(err, orchestrator.ErrNoEligibleNode):
		reason = "no eligible node"
	case errors.Is(err, cluster.ErrNodeUnreachable):
		reason = "node unreachable"
	default:
		return nil, err
	}
	l.m["launch_failed"]++
	l.logf(t, "launch failed (%s)", reason)
	return actions, nil
}

// result folds the run's end-of-run totals into the metric table, hashes
// the trace and evaluates the spec's assertion table.
func (l *lab) result() ScenarioResult {
	spec, m := l.spec, l.m
	tot := l.rs.Totals()
	m["served"] = float64(tot.Served)
	m["failed"] = float64(tot.Failed)
	m["shed"] = float64(tot.Shed)
	m["splits"] = float64(tot.Splits)
	m["backlog_final"] = float64(l.rs.Backlog())
	m["replicas_launched"] = float64(tot.Launched)
	m["final_replicas"] = float64(tot.Live)
	m["requests_per_replica"] = 0
	if tot.Launched > 0 {
		m["requests_per_replica"] = float64(tot.Served) / float64(tot.Launched)
	}
	m["sim_cycles_serial"] = float64(tot.SerialCycles)
	m["sim_cycles_critical"] = float64(tot.CriticalCycles)
	m["sim_cycles_front"] = float64(tot.FrontCycles)
	m["faults"] = float64(tot.Faults)
	m["trace_len"] = float64(len(l.trace))
	// Adaptation latency is the simulated time from the injection tick to
	// the end of the tick whose Observe reacted: one tick of latency means
	// the same monitoring period that saw the fault also repaired it.
	m["adapt_latency_sim_ms"] = 0
	if inject, first := spec.InjectTick(), m["first_reaction_tick"]; inject > 0 && first > 0 {
		m["adapt_latency_sim_ms"] = (first - float64(inject) + 1) * spec.TickMillis
	}
	m["p50_wait_sim_ms"], m["p95_wait_sim_ms"], m["max_wait_sim_ms"] = l.rs.LatencyPercentiles()
	retried, abandoned, _ := l.client.RetryStats()
	m["retries_sent"], m["retries_abandoned"] = float64(retried), float64(abandoned)
	if l.cs != nil {
		l.cs.foldMetrics(m)
	}
	adm := l.rs.AdmissionStats()
	var dispatchedAll uint64
	for _, ts := range adm.ByTenant {
		dispatchedAll += ts.Dispatched
	}
	for tenant, ts := range adm.ByTenant {
		name := tenant
		if name == "" {
			name = "default"
		}
		m["sent:"+name] = float64(l.sentBy[tenant])
		m["shed:"+name] = float64(ts.Shed)
		m["dispatched:"+name] = float64(ts.Dispatched)
		if dispatchedAll > 0 {
			m["served_share:"+name] = float64(ts.Dispatched) / float64(dispatchedAll)
		}
	}
	for _, g := range l.gens {
		if g.load.Profile == "smartgrid-stream" {
			m["alerts:"+g.load.Tenant] = float64(g.alerts)
			m["forecasts:"+g.load.Tenant] = float64(g.forecasts)
		}
	}

	sum := sha256.Sum256([]byte(strings.Join(l.trace, "\n")))
	res := ScenarioResult{
		Name: spec.Name, Trace: l.trace, TraceHash: hex.EncodeToString(sum[:]),
		Metrics: m, AssertionsPassed: true,
	}
	for _, a := range spec.Assert {
		v, ok := m[a.Metric]
		switch {
		case !ok:
			res.AssertionsPassed = false
			res.AssertionFailures = append(res.AssertionFailures,
				fmt.Sprintf("%s: no such metric", a.Metric))
		case v < a.Min || v > a.Max:
			res.AssertionsPassed = false
			res.AssertionFailures = append(res.AssertionFailures,
				fmt.Sprintf("%s = %g outside [%g, %g]", a.Metric, v, a.Min, a.Max))
		}
	}
	return res
}
