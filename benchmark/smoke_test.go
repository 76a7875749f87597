package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json to the tables
// the program reports from, so the two cannot drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's %q", i, w.Name, w.Why, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v differs from the program's %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s [%s] breaks the naming limits", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v differs from the program's %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s [%s] breaks the naming limits", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestQuickRunsReportEveryMetric runs every workload twice at -quick sizes
// with one seed: each run reports all six end-to-end metrics with the
// declared units, no op fails, and the simulated cycles per op — unlike
// every host figure — are identical across the two runs.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	for _, wd := range workloads {
		t.Run(wd.name, func(t *testing.T) {
			var sim [2]float64
			for i := range sim {
				res, err := runUntraced(wd, 7, 0.2, true)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if res.Samples < minOps {
					t.Errorf("%d latency samples, p95 needs %d", res.Samples, minOps)
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
				}
				for _, d := range endToEnd {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || !(m.Value > 0) {
						t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
					}
				}
				sim[i] = res.Metrics["sim_cycles_per_op"].Value
			}
			if sim[0] != sim[1] {
				t.Errorf("sim_cycles_per_op differs across two runs of one seed: %v vs %v", sim[0], sim[1])
			}
		})
	}
}

// TestQuickTraceReportsEveryLayerMetric runs the trace pass of every
// workload at -quick sizes: it reports exactly the per-layer metrics of
// BENCHMARK.json, leaves a trace file, and moves the metrics of the
// layers the workload exists to stress.
func TestQuickTraceReportsEveryLayerMetric(t *testing.T) {
	moves := map[string][]string{
		"plane_http_small":      {"wire.send_us_per_req", "wire.recv_us_per_req", "wire.gateway_us_per_req", "microsvc.step_us_per_req", "container.boot_ms", "attest.key_release_us"},
		"plane_inproc_large":    {"eventbus.publish_us_per_msg", "eventbus.poll_us_per_msg", "microsvc.client_seal_us_per_req", "microsvc.step_sim_cycles_per_req"},
		"scbr_publish_resident": {"scbr.publish_us_per_event", "scbr.match_us_per_event", "scbr.checks_per_match", "enclave.cycle_share.cpu"},
		"scbr_churn_paging":     {"scbr.subscribe_us_p50", "scbr.unsubscribe_us_p50", "scbr.unsubscribe_sim_cycles", "scbr.store_mb"},
		"durable_write":         {"kvstore.putbatch_us_p50", "kvstore.wal_append_us_per_batch", "kvstore.wal_bytes_per_user_byte", "transfer.pack_mb_s"},
		"durable_recover":       {"kvstore.recover_chain_links", "kvstore.replay_records", "container.chunks_fetched_per_recover", "container.cache_hit_ratio", "transfer.unpack_mb_s"},
		"billing_job":           {"kvstore.range_ms", "kvstore.ingest_us_per_reading", "mapreduce.run_ms_per_job", "mapreduce.sim_speedup"},
	}
	for _, wd := range workloads {
		t.Run(wd.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runTraced(wd, 7, 0.4, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			for _, name := range append(moves[wd.name], "cryptbox.seal_ns_per_kib", "enclave.access_ns_per_line", "host.allocs_per_op") {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want it above 0 on this workload", name, res.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+wd.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
