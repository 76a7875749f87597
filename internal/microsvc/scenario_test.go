package microsvc

import (
	"testing"
)

// shrink returns a scenario reduced for test runtime while keeping every
// injection inside the horizon.
func shrink(sc ScenarioSpec) ScenarioSpec {
	sc.Ticks = 24
	return sc
}

// TestScenariosDeterministicAcrossWorkerCounts is the plane's determinism
// property: for every fault-injection scenario, the adaptation trace and
// all simulated totals are bit-identical at worker counts 1, 2, 4 and 8.
// Worker count is execution-only; topology decisions (scale-out/in,
// restarts) and cycle accounting may never depend on it.
func TestScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, sc := range DefaultScenarios() {
		sc := shrink(sc)
		t.Run(sc.Name, func(t *testing.T) {
			var ref ScenarioResult
			for i, w := range []int{1, 2, 4, 8} {
				sc.Workers = w
				got, err := RunSpec(sc)
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
				if got.SerialCycles != ref.SerialCycles || got.CriticalCycles != ref.CriticalCycles {
					t.Fatalf("workers=%d cycles %d/%d != %d/%d", w,
						got.SerialCycles, got.CriticalCycles, ref.SerialCycles, ref.CriticalCycles)
				}
				if got.Faults != ref.Faults || got.Served != ref.Served || got.Failed != ref.Failed {
					t.Fatalf("workers=%d faults/served/failed %d/%d/%d != %d/%d/%d", w,
						got.Faults, got.Served, got.Failed, ref.Faults, ref.Served, ref.Failed)
				}
				if got.FrontCycles != ref.FrontCycles || got.Launched != ref.Launched {
					t.Fatalf("workers=%d front/launched %d/%d != %d/%d", w,
						got.FrontCycles, got.Launched, ref.FrontCycles, ref.Launched)
				}
			}
		})
	}
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
			if res.InjectTick <= 0 {
				t.Fatalf("scenario has no injection: %+v", res)
			}
			if res.FirstReactionTick < res.InjectTick {
				t.Fatalf("first reaction t%d before injection t%d", res.FirstReactionTick, res.InjectTick)
			}
			if res.AdaptLatencySimMS <= 0 {
				t.Fatalf("no adaptation latency recorded: %+v", res)
			}
			// Millisecond-scale reaction is the paper's §VI requirement;
			// our tick is 1 sim-ms, so single-digit ticks qualify.
			if res.AdaptLatencySimMS > 10 {
				t.Fatalf("adaptation took %.1f sim-ms", res.AdaptLatencySimMS)
			}
			if res.Launched <= sc.Replicas && sc.Name != "hot-key-skew" {
				t.Fatalf("no replica was ever launched in reaction: launched=%d", res.Launched)
			}
		})
	}
}

// TestScenarioRerunIdentical: the same scenario twice in one process gives
// byte-identical traces (no hidden global state leaks between runs).
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
	if a.TraceHash != b.TraceHash || a.SerialCycles != b.SerialCycles {
		t.Fatalf("rerun diverged: %s/%d vs %s/%d", a.TraceHash, a.SerialCycles, b.TraceHash, b.SerialCycles)
	}
}
