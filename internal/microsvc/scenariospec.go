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

// This file is the declarative fault-scenario engine (ROADMAP item 3): a
// ScenarioSpec is pure data — tenant load profiles, a fault table, the
// admission and retry configuration, and an assertion table — and RunSpec
// is the one generic closed loop that executes any spec. The four
// orchestrator scenarios (DefaultScenarios) are plain specs run through
// this engine, and a new scenario is a ~20-line literal in scenariolab.go.

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
	PollBatch     int
	Target        orchestrator.Target

	// Admission enables the tenant-aware admission controller; Retry
	// enables deterministic client retry honoring shed retry-after hints.
	Admission *AdmissionConfig
	Retry     *RetryPolicy

	// Durability attaches a durable sealed store mirroring the request
	// stream (see DurabilitySpec); required by "crash-state" faults.
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
			key := fmt.Sprintf("%s%03d", tl.KeyPrefix, g.rng.Intn(maxInt(tl.Keys, 1)))
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunSpec executes one declarative scenario and returns its deterministic
// result. Per tick, in order: inject due faults, re-send due client
// retries, send every tenant's batch, Step the replica set, Observe the
// orchestrator, poll replies, record the trace line. Every figure in the
// result is a pure function of the spec.
func RunSpec(spec ScenarioSpec) (ScenarioResult, error) {
	if spec.Ticks <= 0 || spec.Replicas <= 0 || len(spec.Tenants) == 0 {
		return ScenarioResult{}, fmt.Errorf("microsvc: scenario %q underspecified", spec.Name)
	}
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)

	var appRoot cryptbox.Key
	appRoot[0] = 0xA7
	appRoot[1] = byte(spec.Seed)
	inTopic, outTopic := "plane/req", "plane/resp"
	keys, err := NewServiceKeys(appRoot, scenarioService, inTopic, outTopic)
	if err != nil {
		return ScenarioResult{}, err
	}
	// The handler echoes a fixed-size ack; the modeled per-request compute
	// comes from RequestCycles, charged inside the replica's span.
	handler := func(req []byte) ([]byte, error) { return []byte{byte(len(req))}, nil }

	rsCfg := ReplicaSetConfig{
		Replicas:      spec.Replicas,
		Workers:       spec.Workers,
		InTopic:       inTopic,
		OutTopic:      outTopic,
		PollBatch:     spec.PollBatch,
		TickBudget:    sim.MillisToCycles(spec.TickMillis),
		RequestCycles: spec.RequestCycles,
		Admission:     spec.Admission,
	}
	var (
		rs     *ReplicaSet
		cs     *ClusterSet
		policy attest.Policy
		durH   *durabilityHarness
	)
	if spec.Cluster != nil {
		// Cluster mode: container boots placed on simulated nodes; the
		// key-release policy pins the image's expected measurement (the
		// durability harness is registered first, below, like always).
		var durErr error
		if spec.Durability != nil {
			if durH, durErr = newDurabilityHarness(spec, svc, kb); durErr != nil {
				return ScenarioResult{}, durErr
			}
		}
		cs, policy, err = buildClusterPlane(spec, bus, svc, kb, keys, handler, rsCfg)
		if err != nil {
			return ScenarioResult{}, err
		}
		rs = cs.ReplicaSet
	} else {
		policy = attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner(scenarioService)}}
		kb.Register(scenarioService, policy, keys)
		if spec.Durability != nil {
			if durH, err = newDurabilityHarness(spec, svc, kb); err != nil {
				return ScenarioResult{}, err
			}
		}
		rs, err = NewReplicaSet(bus, svc, kb, scenarioService, handler, rsCfg)
		if err != nil {
			return ScenarioResult{}, err
		}
	}
	defer rs.Stop()
	o, err := orchestrator.New(spec.Target, rs, rs.ReplicaHandles()...)
	if err != nil {
		return ScenarioResult{}, err
	}
	client, err := NewPlaneClient(bus, scenarioService, keys, inTopic, outTopic)
	if err != nil {
		return ScenarioResult{}, err
	}
	defer client.Close()
	if spec.Retry != nil {
		client.EnableRetry(*spec.Retry)
	}

	gens := make([]*tenantGen, len(spec.Tenants))
	for i, tl := range spec.Tenants {
		// Tenant 0 inherits the spec seed unchanged, so a single-tenant
		// spec replays the exact RNG stream of the pre-engine scenarios.
		g, err := newTenantGen(tl, spec.Seed+int64(i)*7919, spec.Ticks)
		if err != nil {
			return ScenarioResult{}, err
		}
		gens[i] = g
	}

	res := ScenarioResult{
		Name: spec.Name, Workers: spec.Workers, Ticks: spec.Ticks,
		InjectTick: spec.InjectTick(), FirstReactionTick: -1,
	}
	sentByTenant := make(map[string]int)
	shedByPhase := [3]int{}
	servedByPhase := [3]int{}
	launchDenied := 0
	launchFailed := 0
	if cs != nil {
		// The construction-time placements (front-end gateway + initial
		// replicas) open the trace at tick zero.
		for _, ev := range cs.DrainEvents() {
			res.Trace = append(res.Trace, "t0000 "+ev)
		}
	}
	phaseOf := func(t int) int {
		if spec.WarmupTicks <= 0 {
			return 1
		}
		switch {
		case t <= spec.WarmupTicks:
			return 0
		case t <= spec.WarmupTicks+spec.InjectTicks:
			return 1
		default:
			return 2
		}
	}
	for t := 1; t <= spec.Ticks; t++ {
		now := float64(t) * spec.TickMillis
		for _, f := range spec.Faults {
			if f.At != t {
				continue
			}
			switch f.Kind {
			case "crash":
				if id := rs.InjectCrash(f.Replica); id != "" {
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject crash %s", t, id))
				}
			case "slow":
				if id := rs.InjectSlow(f.Replica, f.Extra); id != "" {
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject slow %s +%d", t, id, f.Extra))
				}
			case "crash-state":
				if durH == nil {
					return res, fmt.Errorf("microsvc: scenario %q has crash-state fault but no Durability", spec.Name)
				}
				if id := rs.InjectCrash(f.Replica); id != "" {
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject crash-state %s", t, id))
				}
				line, err := durH.crash(t)
				if err != nil {
					return res, err
				}
				res.Trace = append(res.Trace, line)
			case "revoke":
				kb.Revoke(scenarioService)
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject revoke %s", t, scenarioService))
			case "reinstate":
				kb.Register(scenarioService, policy, keys)
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d reinstate %s", t, scenarioService))
			case "node-crash", "partition", "heal", "byzantine":
				if cs == nil {
					return res, fmt.Errorf("microsvc: scenario %q has %s fault but no Cluster", spec.Name, f.Kind)
				}
				switch f.Kind {
				case "node-crash":
					name, ids := cs.CrashNode(f.Node)
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject node-crash %s (%d replicas)", t, name, len(ids)))
				case "partition":
					name, ids := cs.PartitionNode(f.Node)
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject partition %s (%d replicas)", t, name, len(ids)))
				case "heal":
					name := cs.HealNode(f.Node)
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d heal %s", t, name))
				case "byzantine":
					name := cs.SetByzantineNode(f.Node)
					res.Trace = append(res.Trace, fmt.Sprintf("t%04d inject byzantine registry for %s", t, name))
				}
			}
		}
		if spec.Retry != nil {
			if _, err := client.DueRetries(now); err != nil {
				return res, err
			}
		}
		var durPairs []kvstore.Pair
		for _, g := range gens {
			reqs := g.requests(t)
			if len(reqs) == 0 {
				continue
			}
			if _, err := client.SendTenantIDs(g.load.Tenant, reqs); err != nil {
				return res, err
			}
			res.Sent += len(reqs)
			sentByTenant[g.load.Tenant] += len(reqs)
			if durH != nil {
				for _, rq := range reqs {
					durPairs = append(durPairs, kvstore.Pair{Key: g.load.Tenant + "/" + rq.Key, Value: rq.Body})
				}
			}
		}
		if durH != nil {
			if err := durH.put(durPairs); err != nil {
				return res, err
			}
			line, err := durH.maybeSnapshot(t, spec.Durability.SnapshotEvery)
			if err != nil {
				return res, err
			}
			if line != "" {
				res.Trace = append(res.Trace, line)
			}
			line, err = durH.maybeGC(t, spec.Durability.GCEvery)
			if err != nil {
				return res, err
			}
			if line != "" {
				res.Trace = append(res.Trace, line)
			}
		}

		st, err := rs.Step()
		if err != nil {
			return res, err
		}
		shedByPhase[phaseOf(t)] += st.Shed
		servedByPhase[phaseOf(t)] += st.Served
		actions, err := o.Observe()
		if err != nil {
			// A revoked service denies keys to replacement replicas: the
			// orchestrator's launch fails closed, the dead replica stays
			// down, and the retry next tick either re-attests (after a
			// reinstate) or is denied again. Cluster mode adds two more
			// fail-closed launch outcomes the loop must survive: a pull
			// rejecting tampered chunks (the node isolates and placement
			// routes around it next tick) and no node being eligible for
			// placement. Any other error is fatal.
			switch {
			case errors.Is(err, attest.ErrServiceRevoked):
				launchDenied++
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d launch denied (revoked)", t))
			case cs != nil && errors.Is(err, container.ErrChunkVerify):
				launchFailed++
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d launch failed (chunk verify)", t))
			case cs != nil && errors.Is(err, orchestrator.ErrNoEligibleNode):
				launchFailed++
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d launch failed (no eligible node)", t))
			case cs != nil && errors.Is(err, cluster.ErrNodeUnreachable):
				launchFailed++
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d launch failed (node unreachable)", t))
			default:
				return res, err
			}
		}
		if cs != nil {
			for _, ev := range cs.DrainEvents() {
				res.Trace = append(res.Trace, fmt.Sprintf("t%04d %s", t, ev))
			}
		}
		if len(actions) > 0 && res.FirstReactionTick < 0 &&
			(res.InjectTick < 0 || t >= res.InjectTick) {
			res.FirstReactionTick = t
		}
		replies, err := client.Poll(now)
		if err != nil {
			return res, err
		}
		for _, rep := range replies {
			if !rep.Shed {
				res.Replies++
			}
		}

		line := fmt.Sprintf("t%04d replicas=%d backlog=%d", t, o.Replicas(), rs.Backlog())
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
		res.Trace = append(res.Trace, line)
	}

	sum := sha256.Sum256([]byte(strings.Join(res.Trace, "\n")))
	res.TraceHash = hex.EncodeToString(sum[:])
	tot := rs.Totals()
	res.Served = tot.Served
	res.Failed = tot.Failed
	res.Backlog = rs.Backlog()
	res.Launched = tot.Launched
	res.FinalReplicas = tot.Live
	if tot.Launched > 0 {
		res.RequestsPerReplica = float64(tot.Served) / float64(tot.Launched)
	}
	res.SerialCycles = tot.SerialCycles
	res.CriticalCycles = tot.CriticalCycles
	if tot.CriticalCycles > 0 {
		res.SimSpeedup = float64(tot.SerialCycles) / float64(tot.CriticalCycles)
	}
	res.Faults = tot.Faults
	res.FrontCycles = tot.FrontCycles
	if res.InjectTick > 0 && res.FirstReactionTick > 0 {
		res.AdaptLatencySimMS = float64(res.FirstReactionTick-res.InjectTick+1) * spec.TickMillis
	}
	res.Shed = tot.Shed
	res.Splits = tot.Splits
	res.RetriesSent, res.RetriesAbandoned, _ = client.RetryStats()
	res.P50WaitSimMS, res.P95WaitSimMS, res.MaxWaitSimMS = rs.LatencyPercentiles()

	// The flat metric table assertions bound and the bench harness gates.
	m := map[string]float64{
		"sent":                 float64(res.Sent),
		"served":               float64(res.Served),
		"failed":               float64(res.Failed),
		"shed":                 float64(res.Shed),
		"splits":               float64(res.Splits),
		"replies":              float64(res.Replies),
		"backlog_final":        float64(res.Backlog),
		"replicas_launched":    float64(res.Launched),
		"final_replicas":       float64(res.FinalReplicas),
		"requests_per_replica": res.RequestsPerReplica,
		"sim_cycles_serial":    float64(res.SerialCycles),
		"sim_cycles_critical":  float64(res.CriticalCycles),
		"sim_cycles_front":     float64(res.FrontCycles),
		"faults":               float64(res.Faults),
		"trace_len":            float64(len(res.Trace)),
		"first_reaction_tick":  float64(res.FirstReactionTick),
		"adapt_latency_sim_ms": res.AdaptLatencySimMS,
		"p50_wait_sim_ms":      res.P50WaitSimMS,
		"p95_wait_sim_ms":      res.P95WaitSimMS,
		"max_wait_sim_ms":      res.MaxWaitSimMS,
		"retries_sent":         float64(res.RetriesSent),
		"retries_abandoned":    float64(res.RetriesAbandoned),
	}
	if spec.WarmupTicks > 0 {
		m["shed_phase_warmup"] = float64(shedByPhase[0])
		m["shed_phase_inject"] = float64(shedByPhase[1])
		m["shed_phase_recover"] = float64(shedByPhase[2])
		m["served_phase_warmup"] = float64(servedByPhase[0])
		m["served_phase_inject"] = float64(servedByPhase[1])
		m["served_phase_recover"] = float64(servedByPhase[2])
	}
	m["launch_denied"] = float64(launchDenied)
	if cs != nil {
		m["launch_failed"] = float64(launchFailed)
		cs.foldMetrics(m)
	}
	if durH != nil {
		durH.metrics(m)
	}
	adm := rs.AdmissionStats()
	var dispatchedAll uint64
	for _, ts := range adm.ByTenant {
		dispatchedAll += ts.Dispatched
	}
	for name, ts := range adm.ByTenant {
		if name == "" {
			name = "default"
		}
		m["sent:"+name] = float64(sentByTenant[nameOrEmpty(name)])
		m["shed:"+name] = float64(ts.Shed)
		m["dispatched:"+name] = float64(ts.Dispatched)
		if dispatchedAll > 0 {
			m["served_share:"+name] = float64(ts.Dispatched) / float64(dispatchedAll)
		}
	}
	for _, g := range gens {
		if g.load.Profile == "smartgrid-stream" {
			m["alerts:"+g.load.Tenant] = float64(g.alerts)
			m["forecasts:"+g.load.Tenant] = float64(g.forecasts)
		}
	}
	res.Metrics = m

	res.AssertionsPassed = true
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
	return res, nil
}

// nameOrEmpty maps the display name "default" back to the wire tenant "".
func nameOrEmpty(name string) string {
	if name == "default" {
		return ""
	}
	return name
}
