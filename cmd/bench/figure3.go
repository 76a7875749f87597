package main

import (
	"fmt"

	"securecloud/internal/scbr"
)

// figure3Suite gates a reduced Figure 3 sweep (three occupancy points
// straddling the 93 MiB usable EPC, 200 registrations each; the full
// nine-point sweep is the root BenchmarkFigure3Registration). It runs
// twice — sequentially and with the points fanned across goroutines — and
// the values must be bit-identical: each point is an independent pair of
// simulated platforms, so parallelism may only move the wall clock.
func figure3Suite() (result, error) {
	var r result
	cfg := scbr.DefaultFigure3Config()
	cfg.MeasureOps = 200
	cfg.OccupanciesMB = []float64{60, 120, 200}

	sweep := func(parallel int) (map[string]float64, error) {
		cfg.Parallel = parallel
		points, err := scbr.RunFigure3(cfg)
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64)
		for _, p := range points {
			mb := fmt.Sprintf("%gmb.", p.OccupancyMB)
			m[mb+"TimeRatio"] = p.TimeRatio
			m[mb+"FaultRatio"] = p.FaultRatio
			m[mb+"InsideCyclesPerOp"] = p.InsideCyclesPerOp
			m[mb+"OutsideCyclesPerOp"] = p.OutsideCyclesPerOp
			m[mb+"InsideFaults"] = float64(p.InsideFaults)
			m[mb+"OutsideFaults"] = float64(p.OutsideFaults)
		}
		return m, nil
	}
	seq, err := sweep(1)
	if err != nil {
		return r, err
	}
	par, err := sweep(3)
	if err != nil {
		return r, err
	}
	if key := firstDiff(seq, par); key != "" {
		r.Problems = append(r.Problems, key+" differs between the sequential and the parallel sweep (nondeterministic)")
	}
	r.Deterministic = seq
	return r, nil
}
