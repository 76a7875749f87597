package microsvc

import (
	"reflect"
	"testing"
)

// shrink returns a scenario reduced for test runtime while keeping every
// injection inside the horizon.
func shrink(sc ScenarioSpec) ScenarioSpec {
	sc.Ticks = 24
	return sc
}

// TestScenariosDeterministicAcrossWorkerCounts is the plane's determinism
// property over every orchestrator scenario (shrunk): see
// checkWorkerSweep. The lab specs are left to cmd/bench's app suite,
// which runs the same sweep over them.
func TestScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, sc := range DefaultScenarios() {
		checkWorkerSweep(t, shrink(sc))
	}
}

// TestClusterScenariosDeterministicAcrossWorkerCounts extends the same
// property to the cluster matrix, whose metric table also holds the
// per-node figures folded in from cluster.Snapshot.
func TestClusterScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, spec := range ClusterLabScenarios() {
		checkWorkerSweep(t, spec)
	}
}

// checkWorkerSweep runs spec as a subtest at worker counts 1, 2, 4 and 8
// and requires the adaptation trace and the whole metric table to be
// bit-identical across them. Worker count is execution-only; topology
// decisions (scale-out/in, restarts, placement) and cycle accounting may
// never depend on it.
func checkWorkerSweep(t *testing.T, spec ScenarioSpec) {
	t.Helper()
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
				if len(ref.Trace) == 0 || ref.Metrics["served"] == 0 {
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
			if !reflect.DeepEqual(got.Metrics, ref.Metrics) {
				for k, v := range ref.Metrics {
					if gv, ok := got.Metrics[k]; !ok || gv != v {
						t.Errorf("workers=%d metric %s = %v != %v", w, k, gv, v)
					}
				}
				t.Fatalf("workers=%d metric table (%d keys) != workers=1 (%d keys)", w, len(got.Metrics), len(ref.Metrics))
			}
		}
	})
}

// TestScenariosReact pins each scenario's qualitative behaviour: the
// injected fault provokes at least one adaptation at or after the
// injection tick, and the latency is reported in sim-ms.
func TestScenariosReact(t *testing.T) {
	for _, sc := range DefaultScenarios() {
		sc := shrink(sc)
		t.Run(sc.Name, func(t *testing.T) {
			res, err := RunSpec(sc)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			inject := sc.InjectTick()
			if inject <= 0 {
				t.Fatalf("scenario has no injection: %+v", sc)
			}
			if first := m["first_reaction_tick"]; first < float64(inject) {
				t.Fatalf("first reaction t%v before injection t%d", first, inject)
			}
			latency := m["adapt_latency_sim_ms"]
			if latency <= 0 {
				t.Fatalf("no adaptation latency recorded: %v", m)
			}
			// Millisecond-scale reaction is the paper's §VI requirement;
			// our tick is 1 sim-ms, so single-digit ticks qualify.
			if latency > 10 {
				t.Fatalf("adaptation took %.1f sim-ms", latency)
			}
			if launched := m["replicas_launched"]; launched <= float64(sc.Replicas) && sc.Name != "hot-key-skew" {
				t.Fatalf("no replica was ever launched in reaction: launched=%v", launched)
			}
		})
	}
}

// TestScenarioRerunIdentical: the same scenario twice in one process gives
// byte-identical traces and metric tables (no hidden global state leaks
// between runs).
func TestScenarioRerunIdentical(t *testing.T) {
	sc := shrink(DefaultScenarios()[0])
	sc.Workers = 4
	a, err := RunSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash || !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("rerun diverged: %s %v vs %s %v", a.TraceHash, a.Metrics, b.TraceHash, b.Metrics)
	}
}
