package microsvc

import (
	"errors"
	"testing"
)

// gatedSpecs returns every spec cmd/bench gates: Default, Lab and Cluster.
func gatedSpecs() []ScenarioSpec {
	specs := append(DefaultScenarios(), LabScenarios()...)
	return append(specs, ClusterLabScenarios()...)
}

// TestScenarioSpecValidate: a spec the lab would misrun is rejected by
// name before anything boots, and every gated spec is accepted.
func TestScenarioSpecValidate(t *testing.T) {
	for _, spec := range gatedSpecs() {
		if err := spec.validate(); err != nil {
			t.Errorf("gated spec rejected: %v", err)
		}
	}
	base := shrink(DefaultScenarios()[0]) // 24 ticks, one crash at t12
	fault := func(kind string, at int) func(*ScenarioSpec) {
		return func(s *ScenarioSpec) { s.Faults = []FaultSpec{{Kind: kind, At: at}} }
	}
	for _, tc := range []struct {
		name string
		edit func(*ScenarioSpec)
		want error
	}{
		{"no tenants", func(s *ScenarioSpec) { s.Tenants = nil }, errUnderspecified},
		{"misspelt kind", fault("crsh", 12), errUnknownFault},
		{"fault after the last tick", fault("crash", 25), errFaultOutsideRun},
		{"fault at tick zero", fault("crash", 0), errFaultOutsideRun},
		{"crash-state without Durability", fault("crash-state", 12), errFaultNeedsDurability},
		{"node-crash without Cluster", fault("node-crash", 12), errFaultNeedsCluster},
		{"partition without Cluster", fault("partition", 12), errFaultNeedsCluster},
		{"heal without Cluster", fault("heal", 12), errFaultNeedsCluster},
		{"byzantine without Cluster", fault("byzantine", 12), errFaultNeedsCluster},
		{"Cluster with Durability", func(s *ScenarioSpec) {
			s.Cluster = &ClusterSpec{Nodes: 3, NodeCapacity: 1}
			s.Durability = &DurabilitySpec{Shards: 2}
		}, errClusterAndDurability},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.edit(&spec)
			if _, err := RunSpec(spec); !errors.Is(err, tc.want) {
				t.Fatalf("RunSpec error %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLabConservesRequests steps every gated spec tick by tick and checks
// request conservation after each tick: every request the client sent or
// re-sent is served, failed, shed (by admission or at an unreachable
// replica) or still queued somewhere in the plane.
func TestLabConservesRequests(t *testing.T) {
	for _, spec := range gatedSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			l, err := newLab(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer l.close()
			for tick := 1; tick <= spec.Ticks; tick++ {
				if err := l.step(tick); err != nil {
					t.Fatal(err)
				}
				resent, _, _ := l.client.RetryStats()
				tot := l.rs.Totals()
				shedUnreachable, _ := l.rs.UnreachableStats()
				backlog := uint64(l.rs.Backlog())
				in := uint64(l.m["sent"]) + resent
				out := tot.Served + tot.Failed + tot.Shed + shedUnreachable + backlog
				if in != out {
					t.Fatalf("t%d: sent %v + re-sent %d = %d, but served %d + failed %d + shed %d + unreachable-shed %d + backlog %d = %d",
						tick, l.m["sent"], resent, in, tot.Served, tot.Failed, tot.Shed, shedUnreachable, backlog, out)
				}
			}
		})
	}
}
