package main

import (
	"fmt"
	"math"
	"strings"

	"securecloud/internal/microsvc"
)

// orchestratorMetrics are the 13 figures gated for each of the four
// orchestrator scenarios (microsvc.DefaultScenarios), by published name →
// name in ScenarioResult.Metrics. The lab and cluster specs gate their
// whole metric table under a "lab_" prefix instead.
var orchestratorMetrics = map[string]string{
	"served":               "served",
	"failed":               "failed",
	"backlog":              "backlog_final",
	"replicas_launched":    "replicas_launched",
	"final_replicas":       "final_replicas",
	"requests_per_replica": "requests_per_replica",
	"sim_cycles_serial":    "sim_cycles_serial",
	"sim_cycles_critical":  "sim_cycles_critical",
	"sim_cycles_front":     "sim_cycles_front",
	"faults":               "faults",
	"trace_len":            "trace_len",
	"first_reaction_tick":  "first_reaction_tick",
	"adapt_latency_sim_ms": "adapt_latency_sim_ms",
}

// tripwires are correctness statements on top of the specs' assertion
// tables: lab figures that must hold one exact value, each with the
// failure it would mean.
var tripwires = []struct {
	metric  string
	want    float64
	failure string
}{
	{"lab_crash-state_recovered_state_equal", 1, "crash-state recovery diverged from the never-crashed twin"},
	{"lab_key-revocation_served_phase_inject", 0, "a revoked service served requests during the revocation window (fail-open)"},
	{"lab_node-partition_served_via_unreachable", 0, "requests were served via an unreachable replica during the partition (fail-open)"},
	{"lab_byzantine-registry_tampered_cached", 0, "tampered chunks were cached on cluster nodes (cache poisoning)"},
}

// appSuite drives the application plane's closed-loop fault-injection
// scenarios end to end: the four orchestrator scenarios (replica crash,
// load spike, hot-key skew, slow replica), the declarative admission lab
// and the simulated multi-node cluster lab. Every spec runs once per
// worker count; its adaptation trace and every metric must be
// bit-identical across the sweep, and its own assertion table must pass.
//
// The overload spec additionally runs a WithoutAdmission contrast arm:
// the same spike with the controller stripped. Admission on must shed and
// bound the final backlog; admission off must let it grow past 8× that.
func appSuite() (result, error) {
	r := result{Deterministic: make(map[string]float64)}
	det := r.Deterministic

	orchestrated := microsvc.DefaultScenarios()
	specs := append(orchestrated, microsvc.LabScenarios()...)
	specs = append(specs, microsvc.ClusterLabScenarios()...)
	var overload microsvc.ScenarioSpec
	for i, spec := range specs {
		ref, problems, err := sweepWorkers(spec.Name,
			func(workers int) (microsvc.ScenarioResult, error) {
				spec.Workers = workers
				return microsvc.RunSpec(spec)
			},
			func(ref, got microsvc.ScenarioResult) string {
				if got.TraceHash != ref.TraceHash {
					return "adaptation trace"
				}
				return firstDiff(ref.Metrics, got.Metrics)
			})
		if err != nil {
			return r, err
		}
		r.Problems = append(r.Problems, problems...)
		if !ref.AssertionsPassed {
			r.Problems = append(r.Problems, fmt.Sprintf("%s: assertion table failed: %s",
				spec.Name, strings.Join(ref.AssertionFailures, "; ")))
		}
		if i < len(orchestrated) {
			for name, m := range orchestratorMetrics {
				det[spec.Name+"_"+name] = ref.Metrics[m]
			}
			continue
		}
		for m, v := range ref.Metrics {
			det["lab_"+spec.Name+"_"+m] = v
		}
		det["lab_"+spec.Name+"_assertions_passed"] = b2f(ref.AssertionsPassed)
		if spec.Name == "overload" {
			overload = spec
		}
	}

	for _, tw := range tripwires {
		if got := det[tw.metric]; got != tw.want {
			r.Problems = append(r.Problems, fmt.Sprintf("%s (%s = %v, want %v)", tw.failure, tw.metric, got, tw.want))
		}
	}

	// Contrast arm; the run is deterministic, so one worker count suffices.
	noadm := overload.WithoutAdmission()
	noadm.Workers = workerSweep[0]
	res, err := microsvc.RunSpec(noadm)
	if err != nil {
		return r, fmt.Errorf("contrast arm %s: %w", noadm.Name, err)
	}
	admBacklog, noBacklog := det["lab_overload_backlog_final"], res.Metrics["backlog_final"]
	contrastOK := det["lab_overload_shed"] > 0 && noBacklog >= 8*math.Max(1, admBacklog)
	if !contrastOK {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"admission contrast broken: backlog %v with admission (shed %v) vs %v without",
			admBacklog, det["lab_overload_shed"], noBacklog))
	}
	det["overload_noadm_backlog_final"] = noBacklog
	det["overload_noadm_served"] = res.Metrics["served"]
	det["overload_contrast_ok"] = b2f(contrastOK)
	return r, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
