package microsvc

import (
	"testing"
)

// TestClusterScenariosDeterministicAcrossWorkerCounts extends the plane's
// determinism property to the cluster matrix: trace and every metric —
// including the per-node figures folded in from cluster.Snapshot — are
// bit-identical at worker counts 1, 2, 4 and 8.
func TestClusterScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, spec := range ClusterLabScenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			var ref ScenarioResult
			for i, w := range []int{1, 2, 4, 8} {
				spec.Workers = w
				got, err := RunSpec(spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if i == 0 {
					ref = got
					if len(ref.Trace) == 0 || ref.Served == 0 {
						t.Fatalf("degenerate scenario: %+v", ref)
					}
					continue
				}
				if got.TraceHash != ref.TraceHash {
					for j := range got.Trace {
						if j < len(ref.Trace) && got.Trace[j] != ref.Trace[j] {
							t.Errorf("trace[%d]: workers=%d %q != workers=1 %q", j, w, got.Trace[j], ref.Trace[j])
							break
						}
					}
					t.Fatalf("workers=%d trace hash %s != %s", w, got.TraceHash, ref.TraceHash)
				}
				if len(got.Metrics) != len(ref.Metrics) {
					t.Fatalf("workers=%d metric count %d != %d", w, len(got.Metrics), len(ref.Metrics))
				}
				for k, v := range ref.Metrics {
					if gv, ok := got.Metrics[k]; !ok || gv != v {
						t.Fatalf("workers=%d metric %s = %v != %v", w, k, gv, v)
					}
				}
			}
		})
	}
}

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
