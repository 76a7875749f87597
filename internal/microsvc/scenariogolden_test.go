//go:build !race

package microsvc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestScenarioTraceGolden pins the full adaptation trace of every gated
// spec, not just its length: the TraceHash of all Default, Lab and Cluster
// specs plus the overload spec's WithoutAdmission arm, at one worker. The
// bench gate keeps only each trace's length, so a reworded trace line
// (same count, different text) is caught here and nowhere else.
// Regenerate deliberately with GOLDEN_UPDATE=1. The file is left out of
// -race builds: the race detector adds nothing to a single-worker hash
// pin, and the worker sweep and TestLabConservesRequests run the same
// specs under -race.
func TestScenarioTraceGolden(t *testing.T) {
	specs := gatedSpecs()
	for _, spec := range LabScenarios() {
		if spec.Name == "overload" {
			specs = append(specs, spec.WithoutAdmission())
		}
	}
	got := make(map[string]string, len(specs))
	for _, spec := range specs {
		spec.Workers = 1
		res, err := RunSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got[res.Name] = res.TraceHash
	}

	path := filepath.Join("testdata", "golden_traces.json")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d trace hashes", len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (record with GOLDEN_UPDATE=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, h := range want {
			if got[name] != h {
				t.Errorf("%s: trace hash %s, golden %s", name, got[name], h)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: no golden trace hash", name)
			}
		}
	}
}
