package microsvc

import (
	"securecloud/internal/orchestrator"
	"securecloud/internal/sim"
)

// ScenarioResult is the deterministic outcome of one scenario run. Every
// field except Workers is invariant to the Workers setting; the benchmark
// harness asserts exactly that before gating the values.
type ScenarioResult struct {
	Name    string
	Workers int
	Ticks   int
	// Trace is the per-tick adaptation record: replica count, backlog and
	// orchestrator actions, plus injection markers. TraceHash is the
	// SHA-256 of the joined trace — the single value CI gates.
	Trace     []string
	TraceHash string

	Sent    int
	Served  uint64
	Failed  uint64
	Replies int
	Backlog int

	Launched           int
	FinalReplicas      int
	RequestsPerReplica float64

	SerialCycles   sim.Cycles
	CriticalCycles sim.Cycles
	SimSpeedup     float64
	Faults         uint64
	FrontCycles    sim.Cycles

	InjectTick        int
	FirstReactionTick int
	// AdaptLatencySimMS is the simulated time from the injection tick to
	// the end of the tick whose Observe reacted: one tick of latency means
	// the same monitoring period that saw the fault also repaired it.
	AdaptLatencySimMS float64

	// Admission figures (zero without an AdmissionConfig): shed and
	// hot-key-split totals, admission queue-wait percentiles in sim-ms,
	// and the client's retry counters.
	Shed             uint64
	Splits           uint64
	P50WaitSimMS     float64
	P95WaitSimMS     float64
	MaxWaitSimMS     float64
	RetriesSent      uint64
	RetriesAbandoned uint64

	// Metrics is the flat deterministic metric table the spec's assertion
	// table binds against and the bench harness gates (includes per-tenant
	// sent/shed/dispatched/served_share entries).
	Metrics map[string]float64
	// AssertionsPassed / AssertionFailures report the spec's assertion
	// table verdict (vacuously true for a spec without assertions).
	AssertionsPassed  bool
	AssertionFailures []string
}

// scenarioService is the service name scenarios run under.
const scenarioService = "plane/scenario"

// DefaultScenarios returns the four gated orchestrator scenarios — replica
// crash, load spike, hot-key skew and slow replica — as declarative specs:
// one untagged tenant ("", no admission) carrying the whole load
// schedule, plus at most one replica fault. Their adaptation traces and
// cycle totals are pinned in scripts/bench_baseline.json; change them only
// with the same deliberation as a golden file.
func DefaultScenarios() []ScenarioSpec {
	scenario := func(name string, load TenantLoad, faults ...FaultSpec) ScenarioSpec {
		load.Keys, load.BodyBytes = 64, 192
		return ScenarioSpec{
			Name:          name,
			Seed:          42,
			Ticks:         48,
			Replicas:      2,
			TickMillis:    1,
			RequestCycles: 60_000,
			Target: orchestrator.Target{
				MaxQueueDepth:    32,
				MinReplicas:      1,
				MaxReplicas:      8,
				ScaleInBelow:     4,
				MaxServiceCycles: 200_000,
			},
			Tenants: []TenantLoad{load},
			Faults:  faults,
		}
	}
	return []ScenarioSpec{
		scenario("crash", TenantLoad{BaseLoad: 48},
			FaultSpec{Kind: "crash", At: 12, Replica: 0}),
		scenario("load-spike", TenantLoad{BaseLoad: 48, SpikeAt: 16, SpikeTicks: 8, SpikeFactor: 6}),
		scenario("hot-key-skew", TenantLoad{BaseLoad: 96, SkewAt: 10, SkewPercent: 85, SkewKey: "hot"}),
		scenario("slow-replica", TenantLoad{BaseLoad: 48},
			FaultSpec{Kind: "slow", At: 12, Replica: 0, Extra: 400_000}),
	}
}
