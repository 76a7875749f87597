package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setupFloorS is the absolute slack on setup_s: a set-up of a few tens of
// milliseconds moves by more than a quarter between two runs of one binary.
const setupFloorS = 0.05

// verdict compares one end-to-end metric of two runs of one workload.
// Simulated figures of one seed must repeat exactly; host figures may
// differ by the metric's bound, as a share of a's value.
func verdict(d metricDef, a, b float64, sameSeed, noisy bool) string {
	if d.Name == "sim_cycles_per_op" && sameSeed {
		switch {
		case a == b:
			return "same"
		case b < a:
			return "better"
		default:
			return "worse"
		}
	}
	slack := d.Bound * math.Abs(a)
	if d.Name == "setup_s" {
		slack = math.Max(slack, setupFloorS)
	}
	delta := b - a
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	case math.Abs(delta) <= slack:
		return "same"
	case noisy:
		return "noisy"
	case delta > 0:
		return "worse"
	default:
		return "better"
	}
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric of the
// untraced runs both files hold, and fails if any row is worse or noisy,
// or if either side has failed ops.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	byName := make(map[string]*runResult)
	for _, r := range fb.Runs {
		if !r.Traced {
			byName[r.Workload] = r
		}
	}
	fmt.Fprintf(w, "a: %s (commit %s, dirty %v)\nb: %s (commit %s, dirty %v)\n",
		pathA, fa.Provenance.Commit, fa.Provenance.Dirty, pathB, fb.Provenance.Commit, fb.Provenance.Dirty)
	fmt.Fprintf(w, "%-24s %-20s %16s %16s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	rows, bad := 0, 0
	for _, ra := range fa.Runs {
		rb := byName[ra.Workload]
		if ra.Traced || rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-24s ops_failed a=%d b=%d\n", ra.Workload, ra.Failed, rb.Failed)
			bad++
		}
		for _, d := range endToEnd {
			a, b := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			v := verdict(d, a, b, ra.Seed == rb.Seed, ra.Noisy || rb.Noisy)
			change := 0.0
			if a != 0 {
				change = (b - a) / a * 100
			}
			fmt.Fprintf(w, "%-24s %-20s %16.4f %16.4f %+8.2f%%  %s\n", ra.Workload, d.Name, a, b, change, v)
			rows++
			if v == "worse" || v == "noisy" {
				bad++
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has an untraced run in both files")
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d rows are worse, noisy or have failed ops", bad, rows)
	}
	fmt.Fprintf(w, "%d rows agree\n", rows)
	return nil
}
