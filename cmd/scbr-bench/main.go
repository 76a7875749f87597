// Command scbr-bench regenerates Figure 3 of the SecureCloud paper: the
// in/out-of-enclave ratios of SCBR registration time (left axis) and page
// faults (right axis) as the subscription database grows from below to
// well beyond the EPC capacity.
//
// Usage:
//
//	scbr-bench [-ops N] [-payload BYTES] [-points 60,80,...,220] [-parallel N]
//
// The gated, reduced form of this sweep is the figure3 suite of cmd/bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"securecloud/internal/enclave"
	"securecloud/internal/scbr"
	"securecloud/internal/sim"
)

func main() {
	ops := flag.Int("ops", 1500, "registrations measured per point")
	payload := flag.Int("payload", 2048, "routing-state bytes per subscription")
	points := flag.String("points", "60,80,100,120,140,160,180,200,220", "occupancy points in MB")
	seed := flag.Int64("seed", 42, "workload seed")
	faultCost := flag.Uint64("faultcost", 0,
		"override the EPC page-fault cost in cycles (0 = model default; published\n"+
			"measurements span ~40k-200k cycles; ~200k reproduces the paper's 18x)")
	parallel := flag.Int("parallel", 1,
		"run up to N occupancy points concurrently (each point is an independent\n"+
			"pair of simulated platforms, so values are bit-identical to -parallel 1;\n"+
			"only the wall clock changes)")
	flag.Parse()

	cfg := scbr.DefaultFigure3Config()
	cfg.MeasureOps = *ops
	cfg.PayloadBytes = *payload
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.OccupanciesMB = nil
	for _, s := range strings.Split(*points, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scbr-bench: bad point %q: %v\n", s, err)
			os.Exit(1)
		}
		cfg.OccupanciesMB = append(cfg.OccupanciesMB, v)
	}

	platform := enclave.DefaultConfig()
	if *faultCost > 0 {
		platform.Cost.EPCFault = sim.Cycles(*faultCost)
		cfg.Platform = platform
	}
	fmt.Printf("platform: EPC %d MiB (%d MiB usable), LLC %d MiB, EPC fault %d cycles\n",
		platform.EPCBytes>>20,
		(platform.EPCBytes-platform.EPCReservedBytes)>>20,
		platform.LLCBytes>>20, platform.Cost.EPCFault)

	start := time.Now()
	results, err := scbr.RunFigure3(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scbr-bench: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	scbr.WriteFigure3(os.Stdout, results)
	fmt.Printf("# sweep wall clock: %.2fs\n", elapsed.Seconds())
}
