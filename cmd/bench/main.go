// Command bench is the repo's one bench driver and its live regression
// gate. A registry of suites — figure3, cachemiss, broker, kv, app, pull,
// wire, durability — each runs its workload from the working tree and
// returns two things: deterministic sim-metrics (pure functions of
// workload + cost model, gated to one part per billion) and problems (the
// suite's own invariants: worker-sweep equality, warm pull = 0 chunks,
// delta < cold, recovered-state-equal, fail-open tripwires, …). Each
// invariant is checked once, in the suite that produces the figures.
// Host time is not measured here: benchmark/ is the harness for that,
// with repeated, interleaved runs. Each suite's duration goes to stderr
// as a progress line only.
//
// Suite parameters are constants: the gated figures are only comparable
// when every run uses the same workload. Run from the repo root:
//
//	go run ./cmd/bench                 # run all suites, print the figures
//	go run ./cmd/bench -suite kv,pull  # a subset
//	go run ./cmd/bench -check          # diff against scripts/bench_baseline.json
//	go run ./cmd/bench -update         # deliberately rewrite the baseline
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
	Deterministic map[string]float64
	Problems      []string
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

// baselineSource names the tree a recorded baseline came from: the commit
// and whether the working tree differed from it. Without git the tree
// cannot be shown clean, so it is reported dirty.
func baselineSource() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	source := "cmd/bench @ " + commit
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(out) > 0 {
		source += " (dirty)"
	}
	return source
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
// into the published deterministic metric map and the list of problems.
// A suite that cannot run at all is a problem too.
func runSuites(selected []suite) (map[string]float64, []string) {
	metrics := make(map[string]float64)
	var problems []string
	for _, s := range selected {
		fmt.Fprintf(os.Stderr, "bench: %s\n", s.name)
		start := time.Now()
		r, err := s.run()
		if err != nil {
			r.Problems = append(r.Problems, err.Error())
		}
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1f s\n", s.name, time.Since(start).Seconds())
		for k, v := range r.Deterministic {
			metrics[s.name+"."+k] = v
		}
		for _, p := range r.Problems {
			problems = append(problems, s.name+": "+p)
		}
	}
	return metrics, problems
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
func run(selected []suite, check, update bool) error {
	metrics, problems := runSuites(selected)
	if !check && !update {
		for _, n := range sortedKeys(metrics) {
			fmt.Printf("%-64s %v\n", n, metrics[n])
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
		if err := writeJSON(baselinePath, baseline{Source: baselineSource(), Metrics: merged}); err != nil {
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
	if err := run(selected, *check, *update); err != nil {
		fail(err)
	}
}
