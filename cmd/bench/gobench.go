package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// The cachemiss and broker workloads live in their Benchmark* functions
// (root bench_test.go, internal/scbr/bench_test.go) and nowhere else: the
// suites drive them through `go test -bench` and read the standard result
// lines, so `go test -bench` by hand and the gate measure the same code.

// benchLine is one parsed `go test -bench` result line: the sub-benchmark
// name (no "Benchmark" prefix, no -GOMAXPROCS suffix), the GOMAXPROCS it
// ran at, and every reported "value unit" pair keyed by unit.
type benchLine struct {
	name   string
	procs  int
	values map[string]float64
}

// parseBenchLines extracts the result lines from `go test -bench` output.
func parseBenchLines(out string) ([]benchLine, error) {
	var lines []benchLine
	for _, raw := range strings.Split(out, "\n") {
		f := strings.Fields(raw)
		// name, iteration count, then at least one (value, unit) pair.
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		l := benchLine{name: strings.TrimPrefix(f[0], "Benchmark"), procs: 1, values: make(map[string]float64)}
		if i := strings.LastIndexByte(l.name, '-'); i >= 0 {
			if p, err := strconv.Atoi(l.name[i+1:]); err == nil {
				l.name, l.procs = l.name[:i], p
			}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: value %q: %w", raw, f[i], err)
			}
			l.values[f[i+1]] = v
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// goBench runs the named benchmark of pkg from the working tree.
func goBench(pkg, pattern string, args ...string) ([]benchLine, error) {
	argv := append([]string{"test", "-run", "^$", "-bench", pattern}, args...)
	out, err := exec.Command("go", append(argv, pkg)...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s %s: %w\n%s", strings.Join(argv, " "), pkg, err, out)
	}
	lines, err := parseBenchLines(string(out))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("go %s %s: no benchmark result lines\n%s", strings.Join(argv, " "), pkg, out)
	}
	return lines, nil
}

// unitToMetric turns a benchmark unit into a metric name:
// "sim-cycles/match" → "sim_cycles_per_match".
var unitToMetric = strings.NewReplacer("-", "_", "/", "_per_")

// simValues returns a line's simulated figures — every reported pair
// except the wall-clock ns/op — under metric names.
func simValues(l benchLine) map[string]float64 {
	out := make(map[string]float64)
	for unit, v := range l.values {
		if unit != "ns/op" {
			out[unitToMetric.Replace(unit)] = v
		}
	}
	return out
}

// cachemissSuite gates BenchmarkCacheMissVsSwap: matching cost with the
// store EPC-resident (40 MB) versus swap-bound (200 MB). One iteration:
// the figures are one publication's cycles and faults on a fresh store.
func cachemissSuite() (result, error) {
	r := result{Deterministic: make(map[string]float64), Wallclock: make(map[string]float64)}
	lines, err := goBench("securecloud", "CacheMissVsSwap", "-benchtime=1x")
	if err != nil {
		return r, err
	}
	for _, l := range lines {
		name := strings.TrimPrefix(l.name, "CacheMissVsSwap/")
		for k, v := range simValues(l) {
			r.Deterministic[name+"."+k] = v
		}
		r.Wallclock[name+".wall_ns_per_op"] = l.values["ns/op"]
	}
	return r, nil
}

// brokerSuite gates BenchmarkBrokerPublishParallel at GOMAXPROCS 1 and 4.
// Its simulated figures come from a sequential pass over a frozen store,
// so they must agree at every -cpu setting; only ns/op may differ.
func brokerSuite() (result, error) {
	r := result{Wallclock: make(map[string]float64)}
	lines, err := goBench("securecloud/internal/scbr", "BrokerPublishParallel", "-benchtime=2000x", "-cpu=1,4")
	if err != nil {
		return r, err
	}
	for _, l := range lines {
		sim := simValues(l)
		if r.Deterministic == nil {
			r.Deterministic = sim
		} else if key := firstDiff(r.Deterministic, sim); key != "" {
			r.Problems = append(r.Problems, fmt.Sprintf(
				"%s differs between -cpu=1 and -cpu=%d (nondeterministic)", key, l.procs))
		}
		r.Wallclock[fmt.Sprintf("cpu%d.wall_ns_per_publish", l.procs)] = l.values["ns/op"]
	}
	return r, nil
}
