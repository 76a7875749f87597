package microsvc

import (
	"testing"
)

// TestClusterScenarioAssertions runs each cluster scenario's own
// assertion table — the same table cmd/bench gates in CI.
func TestClusterScenarioAssertions(t *testing.T) {
	for _, spec := range ClusterLabScenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AssertionsPassed {
				for _, f := range res.AssertionFailures {
					t.Errorf("assertion failed: %s", f)
				}
			}
		})
	}
}

// TestClusterWarmColdBootContrast pins the locality story end to end: in
// the node-crash scenario the gateway-warmed replica boots with strictly
// fewer fetched chunks than any cold boot on a fresh node.
func TestClusterWarmColdBootContrast(t *testing.T) {
	for _, spec := range ClusterLabScenarios() {
		if spec.Name != "node-crash" {
			continue
		}
		res, err := RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		warmMax := res.Metrics["cluster.warm_fetch_max"]
		coldMin := res.Metrics["cluster.cold_fetch_min"]
		if res.Metrics["cluster.warm_boots"] < 1 || res.Metrics["cluster.cold_boots"] < 1 {
			t.Fatalf("scenario produced no warm/cold contrast: %v", res.Metrics)
		}
		if warmMax < 0 || coldMin < 0 || warmMax >= coldMin {
			t.Fatalf("warm boot fetched %v chunks, cold boot fetched %v — want strictly fewer", warmMax, coldMin)
		}
		return
	}
	t.Fatal("node-crash scenario missing")
}
