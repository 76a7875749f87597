// Command bench is the repo's one bench driver and its live regression
// gate. A registry of suites — figure3, cachemiss, broker, kv, app, pull,
// wire, durability — each runs its workload from the working tree and
// returns three things: deterministic sim-metrics (pure functions of
// workload + cost model, gated to one part per billion), wall-clock
// figures (they measure the host; informational), and problems (the
// suite's own invariants: worker-sweep equality, warm pull = 0 chunks,
// delta < cold, recovered-state-equal, fail-open tripwires, …). Each
// invariant is checked once, in the suite that produces the figures.
//
// Suite parameters are constants: the gated figures are only comparable
// when every run uses the same workload. Run from the repo root:
//
//	go run ./cmd/bench                 # run all suites, print the figures
//	go run ./cmd/bench -suite kv,pull  # a subset
//	go run ./cmd/bench -check          # diff against scripts/bench_baseline.json
//	go run ./cmd/bench -update         # deliberately rewrite the baseline
//	go run ./cmd/bench -o BENCH_N.json # record an artifact with provenance
//
// Every mode exits non-zero when any suite reports a problem. -check also
// exits non-zero on any drifted, new or missing metric; drift is a
// semantic change to the simulator or its data structures, never noise.
// -update is the same discipline as GOLDEN_UPDATE=1 for the golden tests:
// only in the PR that intentionally changes the cost model or a workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

const baselinePath = "scripts/bench_baseline.json"

// tolerance absorbs JSON float round-tripping, nothing more: deterministic
// metrics must match to better than one part per billion.
const tolerance = 1e-9

// result is what one suite produces. Metric names are local to the suite;
// the driver publishes them as "<suite>.<name>".
type result struct {
	Deterministic map[string]float64 `json:"deterministic"`
	Wallclock     map[string]float64 `json:"wallclock"`
	Problems      []string           `json:"problems,omitempty"`
}

type suite struct {
	name string
	run  func() (result, error)
}

var suites = []suite{
	{"figure3", figure3Suite},
	{"cachemiss", cachemissSuite},
	{"broker", brokerSuite},
	{"kv", kvSuite},
	{"app", appSuite},
	{"pull", pullSuite},
	{"wire", wireSuite},
	{"durability", durabilitySuite},
}

type baseline struct {
	Source  string             `json:"source"`
	Metrics map[string]float64 `json:"metrics"`
}

// provenance records where an artifact's numbers came from, so a recorded
// BENCH_N.json can never be mistaken for a measurement of another tree.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	HostCPUs   int    `json:"host_cpus"`
	DateUTC    string `json:"date_utc"`
}

func readProvenance() provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCPUs:   runtime.NumCPU(),
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	// Without git the tree cannot be shown clean, so it is reported dirty.
	out, err := exec.Command("git", "status", "--porcelain").Output()
	p.Dirty = err != nil || len(out) > 0
	return p
}

// owned reports whether a published metric name belongs to one of the
// selected suites.
func owned(metric string, selected []suite) bool {
	for _, s := range selected {
		if strings.HasPrefix(metric, s.name+".") {
			return true
		}
	}
	return false
}

// diff compares the metrics a run produced against the baseline and
// returns one line per discrepancy, in metric-name order: a value drifted
// beyond tolerance, a metric the baseline does not know, or a baseline
// metric the run no longer produces.
func diff(got, want map[string]float64) []string {
	var out []string
	for _, n := range unionKeys(got, want) {
		g, haveGot := got[n]
		w, haveWant := want[n]
		switch {
		case !haveWant:
			out = append(out, fmt.Sprintf("new metric %s = %v not in baseline", n, g))
		case !haveGot:
			out = append(out, fmt.Sprintf("baseline metric %s no longer produced", n))
		case math.Abs(g-w) > tolerance*math.Max(1, math.Abs(w)):
			out = append(out, fmt.Sprintf("DRIFT %s: %v, baseline %v", n, g, w))
		}
	}
	return out
}

// runSuites runs the selected suites in order and folds their results
// into per-suite records, the published deterministic metric map and the
// list of problems. A suite that cannot run at all is a problem too.
func runSuites(selected []suite) (map[string]result, map[string]float64, []string) {
	results := make(map[string]result, len(selected))
	metrics := make(map[string]float64)
	var problems []string
	for _, s := range selected {
		fmt.Fprintf(os.Stderr, "bench: %s\n", s.name)
		start := time.Now()
		r, err := s.run()
		if err != nil {
			r.Problems = append(r.Problems, err.Error())
		}
		if r.Wallclock == nil {
			r.Wallclock = make(map[string]float64)
		}
		r.Wallclock["suite_wall_s"] = time.Since(start).Seconds()
		results[s.name] = r
		for k, v := range r.Deterministic {
			metrics[s.name+"."+k] = v
		}
		for _, p := range r.Problems {
			problems = append(problems, s.name+": "+p)
		}
	}
	return results, metrics, problems
}

func printSorted(prefix string, m map[string]float64) {
	for _, n := range sortedKeys(m) {
		fmt.Printf("  %-64s %v\n", prefix+n, m[n])
	}
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func readBaseline() (baseline, error) {
	var b baseline
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return b, fmt.Errorf("baseline missing (run from the repo root; record with -update): %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	return b, nil
}

// run is main without the process exit, so tests can drive every mode.
func run(selected []suite, check, update bool, outPath string) error {
	results, metrics, problems := runSuites(selected)
	var prov provenance
	if outPath != "" || update {
		prov = readProvenance()
	}

	if outPath != "" {
		artifact := struct {
			GeneratedBy string            `json:"generated_by"`
			Provenance  provenance        `json:"provenance"`
			Suites      map[string]result `json:"suites"`
		}{"cmd/bench", prov, results}
		if err := writeJSON(outPath, artifact); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", outPath)
	}
	if !check && !update && outPath == "" {
		for _, s := range selected {
			fmt.Printf("%s:\n", s.name)
			printSorted("", results[s.name].Deterministic)
			printSorted("wallclock.", results[s.name].Wallclock)
		}
	}

	// Problems outrank everything: figures from a run whose own invariants
	// failed are neither compared nor recorded.
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench: PROBLEM %s\n", p)
		}
		return fmt.Errorf("%d suite problem(s)", len(problems))
	}

	if update {
		// Suites that did not run keep their recorded values.
		merged := metrics
		if old, err := readBaseline(); err == nil {
			for k, v := range old.Metrics {
				if !owned(k, selected) {
					merged[k] = v
				}
			}
		}
		source := "cmd/bench @ " + prov.Commit
		if prov.Dirty {
			source += " (dirty)"
		}
		if err := writeJSON(baselinePath, baseline{Source: source, Metrics: merged}); err != nil {
			return err
		}
		fmt.Printf("bench: recorded %d metrics into %s\n", len(merged), baselinePath)
	}
	if check {
		base, err := readBaseline()
		if err != nil {
			return err
		}
		want := make(map[string]float64)
		for k, v := range base.Metrics {
			if owned(k, selected) {
				want[k] = v
			}
		}
		lines := diff(metrics, want)
		for _, l := range lines {
			fmt.Fprintf(os.Stderr, "bench: %s\n", l)
		}
		if len(lines) > 0 {
			return fmt.Errorf("%d of %d deterministic metric(s) differ from %s — a semantic simulator change; -update only if intended",
				len(lines), len(want), baselinePath)
		}
		fmt.Printf("bench: %d/%d deterministic metrics match %s\n", len(metrics), len(want), baselinePath)
	}
	return nil
}

func main() {
	suiteFlag := flag.String("suite", "", "comma-separated suites to run (default: all)")
	check := flag.Bool("check", false, "diff the deterministic metrics against "+baselinePath)
	update := flag.Bool("update", false, "rewrite "+baselinePath+" from this run")
	outPath := flag.String("o", "", "record the run as a JSON artifact (BENCH_N.json) with a provenance block")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	selected := suites
	if *suiteFlag != "" {
		selected = nil
		for _, name := range strings.Split(*suiteFlag, ",") {
			i := slices.IndexFunc(suites, func(s suite) bool { return s.name == name })
			if i < 0 {
				fail(fmt.Errorf("unknown suite %q", name))
			}
			selected = append(selected, suites[i])
		}
	}
	if *check && *update {
		fail(fmt.Errorf("-check and -update are exclusive"))
	}
	if err := run(selected, *check, *update, *outPath); err != nil {
		fail(err)
	}
}
