package microsvc

import (
	"securecloud/internal/orchestrator"
)

// LabScenarios is the declarative fault-scenario matrix riding on the
// admission controller: overload, noisy-neighbor (genpack batch vs
// smartgrid streaming tenants), cascading replica failure, slow-network
// replica with hot-key splitting, and three-phase recovery with client
// retry. Every spec's assertion table and TraceHash are gated by
// cmd/bench and pinned bit-identical across Workers {1,2,4,8};
// change them only with the same deliberation as a golden file.
func LabScenarios() []ScenarioSpec {
	target := orchestrator.Target{
		MaxQueueDepth:    32,
		MinReplicas:      1,
		MaxReplicas:      4,
		ScaleInBelow:     4,
		MaxServiceCycles: 200_000,
		MaxShedPerTick:   24,
	}

	// pinnedTarget caps the fleet at its initial size: the overload and
	// recovery scenarios are about admission under a fixed capacity, not
	// about scale-out riding to the rescue (that is the load-spike legacy
	// scenario's job). It is also what makes the ungoverned contrast arm
	// diverge: without admission and without spare replicas the backlog
	// can only grow across the spike.
	pinnedTarget := orchestrator.Target{
		MaxQueueDepth:    32,
		MinReplicas:      1,
		MaxReplicas:      2,
		ScaleInBelow:     4,
		MaxServiceCycles: 200_000,
	}

	// overload: one tenant spikes to ~8× the fleet's capacity for 12
	// ticks. Admission bounds every queue and sheds the excess with
	// retry-after replies; the ungoverned contrast arm (WithoutAdmission,
	// run by the app suite of cmd/bench) lets Backlog() grow without bound
	// instead.
	overload := ScenarioSpec{
		Name: "overload", Seed: 42,
		Ticks: 36, WarmupTicks: 12, InjectTicks: 12,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: pinnedTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, Rate: 90, Burst: 180, MaxQueue: 96},
			MaxGlobalQueue: 192,
			TickMillis:     1,
		},
		Tenants: []TenantLoad{{
			Tenant: "web", BaseLoad: 40, Keys: 64, BodyBytes: 192,
			SpikeAt: 13, SpikeTicks: 12, SpikeFactor: 8,
		}},
		Assert: []Assertion{
			AtLeast("shed", 100),
			Equals("shed_phase_warmup", 0),
			AtMost("backlog_final", 64),
			AtMost("max_wait_sim_ms", 8),
			Equals("failed", 0),
		},
	}

	// noisy-neighbor: a bursty genpack batch tenant floods the plane while
	// a smartgrid streaming tenant (theft detection + load forecasting on
	// the same readings) keeps its weighted-fair share — the batch tenant
	// sheds, the streaming tenant does not.
	noisy := ScenarioSpec{
		Name: "noisy-neighbor", Seed: 42,
		Ticks:    48,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: target,
		Admission: &AdmissionConfig{
			Default: TenantPolicy{Weight: 1, Rate: 60, Burst: 120, MaxQueue: 64},
			Tenants: map[string]TenantPolicy{
				"grid":  {Weight: 3, Rate: 48, Burst: 96, MaxQueue: 64},
				"batch": {Weight: 1, Rate: 40, Burst: 60, MaxQueue: 48},
			},
			MaxGlobalQueue: 256,
			TickMillis:     1,
		},
		Tenants: []TenantLoad{
			{Tenant: "grid", Profile: "smartgrid-stream", BaseLoad: 24, BodyBytes: 96},
			{Tenant: "batch", Profile: "genpack-batch", BaseLoad: 90, Keys: 32, KeyPrefix: "job-", BodyBytes: 192},
		},
		Assert: []Assertion{
			Equals("shed:grid", 0),
			AtLeast("shed:batch", 50),
			AtLeast("served_share:grid", 0.2),
			AtLeast("alerts:grid", 1),
			AtLeast("forecasts:grid", 1),
			Equals("failed", 0),
		},
	}

	// cascade: three replicas crash back to back; the orchestrator
	// replaces each within its detection tick and no request is lost.
	// MinReplicas pins the fleet at three so the light steady load cannot
	// scale the victims away before their crash tick arrives.
	cascadeTarget := target
	cascadeTarget.MinReplicas = 3
	cascadeTarget.MaxReplicas = 6
	cascade := ScenarioSpec{
		Name: "cascade", Seed: 42,
		Ticks:    48,
		Replicas: 3, TickMillis: 1, RequestCycles: 60_000,
		Target: cascadeTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, MaxQueue: 256},
			MaxGlobalQueue: 512,
			TickMillis:     1,
		},
		Tenants: []TenantLoad{{Tenant: "web", BaseLoad: 48, Keys: 64, BodyBytes: 192}},
		Faults: []FaultSpec{
			{Kind: "crash", At: 10, Replica: 0},
			{Kind: "crash", At: 14, Replica: 1},
			{Kind: "crash", At: 18, Replica: 2},
		},
		Assert: []Assertion{
			AtMost("adapt_latency_sim_ms", 2),
			AtLeast("replicas_launched", 6), // 3 initial + 3 crash replacements
			Equals("final_replicas", 3),
			Equals("failed", 0),
			AtMost("backlog_final", 16),
		},
	}

	// slow-network: one replica turns slow right as a hot key starts
	// dominating the load. The straggler rule replaces the replica, and
	// hot-key splitting spreads the key off its backlogged home.
	slownet := ScenarioSpec{
		Name: "slow-network", Seed: 42,
		Ticks:    48,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: target,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, Rate: 100, Burst: 200, MaxQueue: 128},
			MaxGlobalQueue: 256,
			TickMillis:     1,
			HotKeyPerStep:  8,
			SplitWays:      2,
			SplitDepth:     8,
		},
		Tenants: []TenantLoad{{
			Tenant: "web", BaseLoad: 72, Keys: 64, BodyBytes: 192,
			SkewAt: 10, SkewPercent: 80, SkewKey: "hot",
		}},
		Faults: []FaultSpec{{Kind: "slow", At: 12, Replica: 0, Extra: 400_000}},
		Assert: []Assertion{
			AtLeast("splits", 50),
			Equals("failed", 0),
			AtMost("adapt_latency_sim_ms", 4),
			AtMost("p95_wait_sim_ms", 2),
		},
	}

	// recovery: a spike sheds under admission; the client retries with
	// exponential backoff anchored on the servers' retry-after hints, and
	// by the end of the recovery phase every retried request was served —
	// none abandoned, queues drained.
	recovery := ScenarioSpec{
		Name: "recovery", Seed: 42,
		Ticks: 44, WarmupTicks: 12, InjectTicks: 6,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: pinnedTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, Rate: 90, Burst: 180, MaxQueue: 96},
			MaxGlobalQueue: 192,
			TickMillis:     1,
		},
		Retry: &RetryPolicy{MaxAttempts: 6},
		Tenants: []TenantLoad{{
			Tenant: "api", BaseLoad: 40, Keys: 64, BodyBytes: 192,
			SpikeAt: 13, SpikeTicks: 6, SpikeFactor: 4,
		}},
		Assert: []Assertion{
			AtLeast("retries_sent", 1),
			Equals("retries_abandoned", 0),
			Equals("shed_phase_warmup", 0),
			AtMost("backlog_final", 64),
			Equals("failed", 0),
		},
	}

	// crash-state: replicas crash WITH total state loss. The durable store
	// mirrors the request stream (sealed WAL per shard, snapshots every 10
	// ticks); each crash recovers from the latest snapshot — pulled through
	// the engine's verified chunk path — plus the WAL tail, and must come
	// back bit-identical to a never-crashed twin. The second crash recovers
	// through the warm node BlobCache, so it fetches nothing.
	crashState := ScenarioSpec{
		Name: "crash-state", Seed: 42,
		Ticks: 40, WarmupTicks: 10, InjectTicks: 14,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: pinnedTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, MaxQueue: 256},
			MaxGlobalQueue: 512,
			TickMillis:     1,
		},
		Durability: &DurabilitySpec{Shards: 4, SnapshotEvery: 10},
		Tenants:    []TenantLoad{{Tenant: "web", BaseLoad: 40, Keys: 64, BodyBytes: 192}},
		Faults: []FaultSpec{
			{Kind: "crash-state", At: 13, Replica: 0},
			{Kind: "crash-state", At: 17, Replica: 1},
		},
		Assert: []Assertion{
			Equals("recovered_state_equal", 1),
			Equals("recoveries", 2),
			AtLeast("snapshot_bootstrap_cycles", 1),
			AtLeast("log_replay_cycles", 1),
			AtLeast("wal_records_replayed", 1),
			AtLeast("recovery_chunks_fetched", 1),
			AtLeast("recovery_cache_hits", 1),
			Equals("failed", 0),
		},
	}

	// key-revocation: the KeyBroker revokes the service mid-run just as
	// both replicas crash. Replacements fail closed — the broker denies
	// their key release every tick, nothing is served during the inject
	// phase — until a reinstate lets them re-attest and drain the backlog.
	revocation := ScenarioSpec{
		Name: "key-revocation", Seed: 42,
		Ticks: 48, WarmupTicks: 12, InjectTicks: 8,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: pinnedTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, MaxQueue: 256},
			MaxGlobalQueue: 512,
			TickMillis:     1,
		},
		Tenants: []TenantLoad{{Tenant: "api", BaseLoad: 24, Keys: 64, BodyBytes: 192}},
		Faults: []FaultSpec{
			{Kind: "revoke", At: 13},
			{Kind: "crash", At: 13, Replica: 0},
			{Kind: "crash", At: 13, Replica: 1},
			{Kind: "reinstate", At: 21},
		},
		Assert: []Assertion{
			Equals("served_phase_inject", 0),
			AtLeast("served_phase_warmup", 1),
			AtLeast("served_phase_recover", 1),
			AtLeast("launch_denied", 1),
			Equals("failed", 0),
			AtMost("backlog_final", 64),
		},
	}

	// delta-durability: a narrow working set (4 hot keys over 8 shards)
	// makes most shards cold, so the 8-tick snapshot cadence exercises the
	// incremental path: cold shards publish reuse records chaining to their
	// last packed manifest, GC retires snapshot-covered WAL epochs behind a
	// one-epoch retention margin, and each crash recovers by walking the
	// delta chain — still bit-identical to the never-crashed twin.
	deltaDurability := ScenarioSpec{
		Name: "delta-durability", Seed: 42,
		Ticks: 36, WarmupTicks: 8, InjectTicks: 16,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target: pinnedTarget,
		Admission: &AdmissionConfig{
			Default:        TenantPolicy{Weight: 1, MaxQueue: 256},
			MaxGlobalQueue: 512,
			TickMillis:     1,
		},
		Durability: &DurabilitySpec{Shards: 8, SnapshotEvery: 8, GCEvery: 8},
		Tenants:    []TenantLoad{{Tenant: "web", BaseLoad: 24, Keys: 4, BodyBytes: 192}},
		Faults: []FaultSpec{
			{Kind: "crash-state", At: 20, Replica: 0},
			{Kind: "crash-state", At: 28, Replica: 1},
		},
		Assert: []Assertion{
			Equals("recovered_state_equal", 1),
			Equals("recoveries", 2),
			AtLeast("snapshot_shards_reused", 1),
			AtLeast("gc_segments_retired", 1),
			AtLeast("recovery_chain_links", 1),
			AtLeast("wal_records_replayed", 1),
			Equals("failed", 0),
		},
	}

	return []ScenarioSpec{overload, noisy, cascade, slownet, recovery, crashState, revocation, deltaDurability}
}
