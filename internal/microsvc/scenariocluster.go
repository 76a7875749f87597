package microsvc

import (
	"securecloud/internal/orchestrator"
)

// ClusterLabScenarios is the node-level fault matrix riding on the
// simulated multi-node cluster: a node crash (replicas rescheduled onto
// surviving nodes, warm vs cold boot cost visible in the pull stats), a
// network partition (requests to unreachable replicas shed
// deterministically until the orchestrator converges on the reachable
// side), and a byzantine registry serving one node tampered chunks
// (pulls fail closed, the node isolates, placement routes around it).
// Like LabScenarios, every assertion table and TraceHash is gated by
// cmd/bench and pinned bit-identical across Workers {1,2,4,8}.
func ClusterLabScenarios() []ScenarioSpec {
	// Three nodes with one replica slot each force the placer to spread:
	// the front-end warms the gateway (node00), the first replica boots
	// warm there, and every further replica is a cold boot on a fresh
	// node — which is exactly the contrast the warm_lt_cold_ok gate pins.
	clusterSpec := &ClusterSpec{Nodes: 3, NodeCapacity: 1}

	target := orchestrator.Target{
		MaxQueueDepth:    32,
		MinReplicas:      2,
		MaxReplicas:      4,
		ScaleInBelow:     4,
		MaxServiceCycles: 200_000,
	}

	admission := &AdmissionConfig{
		Default:        TenantPolicy{Weight: 1, MaxQueue: 256},
		MaxGlobalQueue: 512,
		TickMillis:     1,
	}

	// node-crash: node01 dies at t13, taking its replica with it. The
	// orchestrator reschedules within its detection tick; the placer
	// skips the dead node, and the replacement cold-boots on node02 —
	// the full image crosses the link, so the cold pull dwarfs the warm
	// gateway boot in the per-node fetch counts.
	nodeCrash := ScenarioSpec{
		Name: "node-crash", Seed: 42,
		Ticks: 36, WarmupTicks: 12, InjectTicks: 8,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target:    target,
		Admission: admission,
		Cluster:   clusterSpec,
		Tenants:   []TenantLoad{{Tenant: "web", BaseLoad: 24, Keys: 64, BodyBytes: 192}},
		Faults:    []FaultSpec{{Kind: "node-crash", At: 13, Node: 1}},
		Assert: []Assertion{
			Equals("cluster.node01.down", 1),
			Equals("warm_lt_cold_ok", 1),
			AtLeast("cluster.warm_boots", 1),
			AtLeast("cluster.cold_boots", 2),
			AtLeast("cluster.node02.boots", 1),
			Equals("served_via_unreachable", 0),
			Equals("failed", 0),
		},
	}

	// node-partition: node01 is cut off the network at t13 (its replica
	// stays alive but unreachable — routed requests shed with a
	// retry-after, none are served through the partition) and heals at
	// t21. The orchestrator replaces the unreachable replica on the
	// reachable side, so the plane converges before the heal even lands.
	nodePartition := ScenarioSpec{
		Name: "node-partition", Seed: 42,
		Ticks: 36, WarmupTicks: 12, InjectTicks: 8,
		Replicas: 2, TickMillis: 1, RequestCycles: 60_000,
		Target:    target,
		Admission: admission,
		Cluster:   clusterSpec,
		Tenants:   []TenantLoad{{Tenant: "web", BaseLoad: 24, Keys: 64, BodyBytes: 192}},
		Faults: []FaultSpec{
			{Kind: "partition", At: 13, Node: 1},
			{Kind: "heal", At: 21, Node: 1},
		},
		Assert: []Assertion{
			AtLeast("partition_shed", 1),
			Equals("served_via_unreachable", 0),
			Equals("final_replicas", 2),
			AtLeast("cluster.node02.boots", 1),
			Equals("failed", 0),
		},
	}

	// byzantine-registry: the registry serves node01 tampered chunks
	// from t5. A load spike at t13 drives scale-out; the placer prefers
	// the idle node01, whose pull fails closed on chunk verification —
	// the tampered bytes never enter its BlobCache — and the node
	// isolates. The next tick's retry routes around it onto node02.
	byzTarget := orchestrator.Target{
		MaxQueueDepth:    24,
		MinReplicas:      1,
		MaxReplicas:      2,
		MaxServiceCycles: 200_000,
	}
	byzantine := ScenarioSpec{
		Name: "byzantine-registry", Seed: 42,
		Ticks: 36, WarmupTicks: 12, InjectTicks: 8,
		Replicas: 1, TickMillis: 1, RequestCycles: 60_000,
		Target:    byzTarget,
		Admission: admission,
		Cluster:   clusterSpec,
		Tenants: []TenantLoad{{
			Tenant: "web", BaseLoad: 12, Keys: 64, BodyBytes: 192,
			SpikeAt: 13, SpikeTicks: 8, SpikeFactor: 8,
		}},
		Faults: []FaultSpec{{Kind: "byzantine", At: 5, Node: 1}},
		Assert: []Assertion{
			Equals("tampered_cached", 0),
			AtLeast("launch_failed", 1),
			Equals("cluster.node01.isolated", 1),
			Equals("cluster.node01.cache_blobs", 0),
			Equals("final_replicas", 2),
			Equals("failed", 0),
		},
	}

	return []ScenarioSpec{nodeCrash, nodePartition, byzantine}
}
