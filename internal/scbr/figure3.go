package scbr

import (
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// Figure3Point is one x-position of the paper's Figure 3: the in/out-of-
// enclave ratios of registration time and page faults at a given
// subscription-database memory occupancy.
type Figure3Point struct {
	// OccupancyMB is the subscription store size when measurement starts.
	OccupancyMB float64
	// TimeRatio is (cycles per registration inside) / (outside) — the
	// left axis of Figure 3.
	TimeRatio float64
	// FaultRatio is the page-fault ratio over the measurement window with
	// pre-touched memory outside (so the outside count is ~0 and the
	// ratio is dominated by EPC faults) — the right axis, which the paper
	// plots in units of 10^3.
	FaultRatio float64
	// InsideCyclesPerOp / OutsideCyclesPerOp are the absolute simulated
	// costs per registration.
	InsideCyclesPerOp  float64
	OutsideCyclesPerOp float64
	// InsideFaults / OutsideFaults over the measurement window.
	InsideFaults  uint64
	OutsideFaults uint64
}

// Figure3Config parameterises the sweep.
type Figure3Config struct {
	// OccupanciesMB lists the x-axis points. The paper sweeps 60–220 MB.
	OccupanciesMB []float64
	// MeasureOps is the number of registrations timed per point.
	MeasureOps int
	// PayloadBytes per subscription (controls how many filters reach a
	// given occupancy).
	PayloadBytes int
	// CheckCost is CPU per comparison.
	CheckCost sim.Cycles
	// Seed fixes the workload.
	Seed int64
	// Platform overrides the platform configuration (zero = SGX v1
	// defaults).
	Platform enclave.Config
}

// DefaultFigure3Config reproduces the paper's sweep.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		OccupanciesMB: []float64{60, 80, 100, 120, 140, 160, 180, 200, 220},
		MeasureOps:    1500,
		PayloadBytes:  1200,
		// One containment comparison costs ~450 cycles of pure compute
		// (descriptor decode, per-attribute interval checks, branchy
		// traversal) — calibrated so that registration is compute-bound
		// while the database is EPC-resident, as the paper's near-1 ratio
		// below 90 MB implies.
		CheckCost: 450,
		Seed:      42,
	}
}

// runRegistration builds a subscription store of the target occupancy on
// the given memory view, then measures per-registration cost.
func runRegistration(mem *enclave.Memory, arena *enclave.Arena, cfg Figure3Config, targetBytes int64) (cyclesPerOp float64, faults uint64) {
	ix := NewIndex(IndexConfig{
		Mem:          mem,
		Arena:        arena,
		PayloadBytes: cfg.PayloadBytes,
		CheckCost:    cfg.CheckCost,
	})
	w := NewWorkload(DefaultWorkload(cfg.Seed))
	for ix.MemoryBytes() < targetBytes {
		ix.Insert(w.NextSubscription())
	}
	mem.ResetAccounting()
	start := mem.Cycles()
	for i := 0; i < cfg.MeasureOps; i++ {
		ix.Insert(w.NextSubscription())
	}
	cycles := mem.Cycles() - start
	return float64(cycles) / float64(cfg.MeasureOps), mem.Faults()
}

// runFigure3Point measures one occupancy point on a fresh pair of twin
// platforms. Points share no state, which is what makes the parallel sweep
// deterministic.
func runFigure3Point(cfg Figure3Config, mb float64) (Figure3Point, error) {
	target := int64(mb * float64(1<<20))
	// Headroom for the measured registrations on top of the build.
	arenaSize := uint64(target) + uint64(cfg.MeasureOps*(cfg.PayloadBytes+512)) + (8 << 20)

	// Inside: enclave sized to hold the database.
	pIn := enclave.NewPlatform(cfg.Platform)
	var signer cryptbox.Digest
	enc, err := pIn.ECreate(arenaSize+(1<<20), signer)
	if err != nil {
		return Figure3Point{}, err
	}
	if _, err := enc.EAdd([]byte("scbr-broker")); err != nil {
		return Figure3Point{}, err
	}
	if err := enc.EInit(); err != nil {
		return Figure3Point{}, err
	}
	arenaIn, err := enc.HeapArena()
	if err != nil {
		return Figure3Point{}, err
	}
	inCycles, inFaults := runRegistration(enc.Memory(), arenaIn, cfg, target)

	// Outside: same workload on a twin platform's untrusted memory.
	// The arena is pre-touched once, mirroring the enclave side where
	// EADD pre-loaded every page at build time — so the measured
	// fault counts compare steady states, not allocator warm-up.
	pOut := enclave.NewPlatform(cfg.Platform)
	memOut := pOut.UntrustedMemory()
	base := pOut.AllocUntrusted(arenaSize)
	pageSize := pOut.Config().PageSize
	sp := memOut.BeginSpan()
	for off := uint64(0); off < arenaSize; off += pageSize {
		sp.Access(base+off, 1)
	}
	sp.End()
	arenaOut := enclave.NewArena(memOut, base, arenaSize)
	outCycles, outFaults := runRegistration(memOut, arenaOut, cfg, target)

	pt := Figure3Point{
		OccupancyMB:        mb,
		InsideCyclesPerOp:  inCycles,
		OutsideCyclesPerOp: outCycles,
		InsideFaults:       inFaults,
		OutsideFaults:      outFaults,
	}
	if outCycles > 0 {
		pt.TimeRatio = inCycles / outCycles
	}
	den := float64(outFaults)
	if den < 1 {
		den = 1
	}
	pt.FaultRatio = float64(inFaults) / den
	return pt, nil
}

// RunFigure3 executes the sweep and returns one point per occupancy. Each
// point runs the identical workload (same seed) twice: once against an
// enclave memory view, once against an untrusted view on a twin platform.
func RunFigure3(cfg Figure3Config) ([]Figure3Point, error) {
	if len(cfg.OccupanciesMB) == 0 {
		cfg = DefaultFigure3Config()
	}
	out := make([]Figure3Point, len(cfg.OccupanciesMB))
	for i, mb := range cfg.OccupanciesMB {
		pt, err := runFigure3Point(cfg, mb)
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}
