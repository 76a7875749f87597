package main

import (
	"fmt"
	"time"

	"securecloud/internal/scbr"
)

// figure3Suite gates a reduced Figure 3 sweep (three occupancy points
// straddling the 93 MiB usable EPC, 200 registrations each; the full
// nine-point sweep is `go run ./cmd/scbr-bench`). It runs twice —
// sequentially and with the points fanned across goroutines — and the
// values must be bit-identical: each point is an independent pair of
// simulated platforms, so parallelism may only move the wall clock.
func figure3Suite() (result, error) {
	r := result{Deterministic: make(map[string]float64), Wallclock: make(map[string]float64)}
	cfg := scbr.DefaultFigure3Config()
	cfg.MeasureOps = 200
	cfg.OccupanciesMB = []float64{60, 120, 200}

	sweep := func(parallel int) (map[string]float64, float64, error) {
		cfg.Parallel = parallel
		start := time.Now()
		points, err := scbr.RunFigure3(cfg)
		if err != nil {
			return nil, 0, err
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
		return m, time.Since(start).Seconds(), nil
	}
	seq, seqWall, err := sweep(1)
	if err != nil {
		return r, err
	}
	par, parWall, err := sweep(3)
	if err != nil {
		return r, err
	}
	if key := firstDiff(seq, par); key != "" {
		r.Problems = append(r.Problems, key+" differs between the sequential and the parallel sweep (nondeterministic)")
	}
	r.Deterministic = seq
	r.Wallclock["sequential_wall_s"] = seqWall
	r.Wallclock["parallel3_wall_s"] = parWall
	return r, nil
}
