package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestDiff(t *testing.T) {
	base := map[string]float64{"kv.a": 1000, "kv.b": 0.5}
	for _, tc := range []struct {
		name string
		got  map[string]float64
		want []string // substrings, one per expected line, in order
	}{
		{"match", map[string]float64{"kv.a": 1000, "kv.b": 0.5}, nil},
		{"within tolerance", map[string]float64{"kv.a": 1000 + 1e-7, "kv.b": 0.5}, nil},
		{"drift", map[string]float64{"kv.a": 1000 + 1e-5, "kv.b": 0.5}, []string{"DRIFT kv.a"}},
		{"drift near zero", map[string]float64{"kv.a": 1000, "kv.b": 0.5 + 1e-8}, []string{"DRIFT kv.b"}},
		{"metric new", map[string]float64{"kv.a": 1000, "kv.b": 0.5, "kv.c": 7}, []string{"new metric kv.c"}},
		{"metric missing", map[string]float64{"kv.b": 0.5}, []string{"baseline metric kv.a no longer produced"}},
		{"sorted", map[string]float64{"kv.a": 1, "kv.c": 7}, []string{"DRIFT kv.a", "kv.b no longer", "new metric kv.c"}},
	} {
		got := diff(tc.got, base)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d lines %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, sub := range tc.want {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: line %d = %q, want it to contain %q", tc.name, i, got[i], sub)
			}
		}
	}
}

// TestBaselineCoveredBySuites: every gated metric belongs to a registered
// suite (or nothing could ever regenerate it) and every suite gates at
// least one metric (or it silently fell out of the gate).
func TestBaselineCoveredBySuites(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", baselinePath))
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	perSuite := make(map[string]int)
	for k := range base.Metrics {
		if !owned(k, suites) {
			t.Errorf("baseline metric %s belongs to no registered suite", k)
		}
		perSuite[k[:strings.IndexByte(k, '.')]]++
	}
	for _, s := range suites {
		if perSuite[s.name] == 0 {
			t.Errorf("suite %s contributes no baseline metric", s.name)
		}
	}
}

// chdirTempRepo moves the test into a temp directory laid out like the
// repo root, holding a baseline with the given metrics.
func chdirTempRepo(t *testing.T, metrics map[string]float64) {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, filepath.Dir(baselinePath)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(dir, baselinePath), baseline{Source: "test", Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

func TestCheckModes(t *testing.T) {
	fake := func(v float64, problems ...string) []suite {
		return []suite{{"fake", func() (result, error) {
			return result{Deterministic: map[string]float64{"x": v}, Problems: problems}, nil
		}}}
	}
	chdirTempRepo(t, map[string]float64{"fake.x": 3, "other.y": 9})
	if err := run(fake(3), true, false); err != nil {
		t.Errorf("matching metrics: %v", err)
	}
	if err := run(fake(4), true, false); err == nil {
		t.Error("drifted metric passed -check")
	}
	// A failed invariant fails the gate even when every metric matches.
	if err := run(fake(3, "invariant broken"), true, false); err == nil {
		t.Error("a suite problem passed -check although all metrics match")
	}
	// A suite that cannot run is a problem, not a silent skip.
	broken := []suite{{"fake", func() (result, error) { return result{}, errors.New("boom") }}}
	if err := run(broken, true, false); err == nil {
		t.Error("a suite error passed -check")
	}
	// -update rewrites the selected suite's metrics and keeps the rest.
	if err := run(fake(4), false, true); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"fake.x": 4, "other.y": 9}; !reflect.DeepEqual(got.Metrics, want) {
		t.Errorf("baseline after -update = %v, want %v", got.Metrics, want)
	}
	// -update refuses to record a run whose invariants failed.
	if err := run(fake(5, "invariant broken"), false, true); err == nil {
		t.Error("-update recorded a run with problems")
	}
}

func TestParseBenchLines(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: securecloud/internal/scbr
cpu: Some CPU @ 2.00GHz
BenchmarkBrokerPublishParallel     	    2000	    123456 ns/op	        82.64 faults/match	   3429909 sim-critical-cycles/match	  10427714 sim-cycles/match	         3.040 sim-speedup
BenchmarkBrokerPublishParallel-4   	    2000	     99999 ns/op	        82.64 faults/match	   3429909 sim-critical-cycles/match	  10427714 sim-cycles/match	         3.040 sim-speedup
BenchmarkCacheMissVsSwap/store=40MB-2         	       1	    186000 ns/op	         0 faults/match	    112620 sim-cycles/match
--- BENCH: BenchmarkNoise
PASS
ok  	securecloud/internal/scbr	4.2s
`
	lines, err := parseBenchLines(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("parsed %d lines, want 3: %+v", len(lines), lines)
	}
	if l := lines[0]; l.name != "BrokerPublishParallel" || l.procs != 1 || l.values["sim-speedup"] != 3.04 || l.values["ns/op"] != 123456 {
		t.Errorf("line 0 = %+v", l)
	}
	if l := lines[1]; l.name != "BrokerPublishParallel" || l.procs != 4 {
		t.Errorf("line 1 = %+v", l)
	}
	l := lines[2]
	if l.name != "CacheMissVsSwap/store=40MB" || l.procs != 2 {
		t.Errorf("line 2 = %+v", l)
	}
	want := map[string]float64{"faults_per_match": 0, "sim_cycles_per_match": 112620}
	if got := simValues(l); !reflect.DeepEqual(got, want) {
		t.Errorf("simValues = %v, want %v", got, want)
	}
	if _, err := parseBenchLines("BenchmarkX-2 \t 1 \t oops ns/op\n"); err == nil {
		t.Error("malformed value parsed without error")
	}
}

func TestSweepWorkersReportsFirstDifferingKey(t *testing.T) {
	stable := func(int) (map[string]float64, error) {
		return map[string]float64{"a": 1, "b": 2}, nil
	}
	ref, problems, err := sweepWorkers("stable", stable, firstDiff)
	if err != nil || len(problems) != 0 || ref["b"] != 2 {
		t.Fatalf("stable sweep: ref=%v problems=%v err=%v", ref, problems, err)
	}

	// "b" and "c" both depend on the worker count from 4 up; "b" sorts first.
	leaky := func(workers int) (map[string]float64, error) {
		m := map[string]float64{"a": 1, "b": 2, "c": 3}
		if workers >= 4 {
			m["b"], m["c"] = float64(workers), float64(workers)
		}
		return m, nil
	}
	ref, problems, err = sweepWorkers("leaky", leaky, firstDiff)
	if err != nil {
		t.Fatal(err)
	}
	if ref["b"] != 2 {
		t.Errorf("reference is not the first run: %v", ref)
	}
	if len(problems) != 2 {
		t.Fatalf("problems = %q, want one per departing worker count (4 and 8)", problems)
	}
	if !strings.Contains(problems[0], "b (2 vs 4)") || !strings.Contains(problems[0], "workers=4") || strings.Contains(problems[0], "c (") {
		t.Errorf("problem %q does not name the first differing key at workers=4", problems[0])
	}

	_, _, err = sweepWorkers("failing", func(workers int) (map[string]float64, error) {
		if workers == 2 {
			return nil, errors.New("boom")
		}
		return nil, nil
	}, firstDiff)
	if err == nil || !strings.Contains(err.Error(), "workers=2") {
		t.Errorf("error %v does not name the failing worker count", err)
	}
}
