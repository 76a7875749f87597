package main

import (
	"fmt"
	"sort"
)

// workerSweep is the execution-only fan-out swept by every suite whose
// workload takes a worker count: the figures must not depend on it.
var workerSweep = []int{1, 2, 4, 8}

// sweepWorkers runs the workload once per worker count and returns the
// first run's outcome. differs names the first figure on which a later
// run departs from the first ("" when identical); each departure becomes
// a problem, because worker count may never change a simulated figure.
func sweepWorkers[T any](what string, run func(workers int) (T, error), differs func(ref, got T) string) (T, []string, error) {
	var ref T
	var problems []string
	for i, w := range workerSweep {
		got, err := run(w)
		if err != nil {
			return ref, nil, fmt.Errorf("%s at workers=%d: %w", what, w, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if key := differs(ref, got); key != "" {
			problems = append(problems, fmt.Sprintf(
				"%s: %s differs between workers=%d and workers=%d (nondeterministic)", what, key, workerSweep[0], w))
		}
	}
	return ref, problems, nil
}

// firstDiff returns the first key, in name order, that the two metric
// tables disagree on (different value, or present on one side only) with
// both values rendered, or "" when they are bit-identical.
func firstDiff(a, b map[string]float64) string {
	for _, k := range unionKeys(a, b) {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok || !bok || av != bv {
			return fmt.Sprintf("%s (%v vs %v)", k, av, bv)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unionKeys returns the keys of either table, in name order.
func unionKeys(a, b map[string]float64) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
