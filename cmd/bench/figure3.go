package main

import (
	"fmt"

	"securecloud/internal/scbr"
)

// figure3Suite gates a reduced Figure 3 sweep (three occupancy points
// straddling the 93 MiB usable EPC, 200 registrations each; the full
// nine-point sweep is the root BenchmarkFigure3Registration).
func figure3Suite() (result, error) {
	var r result
	cfg := scbr.DefaultFigure3Config()
	cfg.MeasureOps = 200
	cfg.OccupanciesMB = []float64{60, 120, 200}
	points, err := scbr.RunFigure3(cfg)
	if err != nil {
		return r, err
	}
	r.Deterministic = make(map[string]float64)
	for _, p := range points {
		mb := fmt.Sprintf("%gmb.", p.OccupancyMB)
		r.Deterministic[mb+"TimeRatio"] = p.TimeRatio
		r.Deterministic[mb+"FaultRatio"] = p.FaultRatio
		r.Deterministic[mb+"InsideCyclesPerOp"] = p.InsideCyclesPerOp
		r.Deterministic[mb+"OutsideCyclesPerOp"] = p.OutsideCyclesPerOp
		r.Deterministic[mb+"InsideFaults"] = float64(p.InsideFaults)
		r.Deterministic[mb+"OutsideFaults"] = float64(p.OutsideFaults)
	}
	return r, nil
}
