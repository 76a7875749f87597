// Package smartgrid implements the SecureCloud application use cases of
// paper §VI: synthetic smart-meter fleets producing sub-minute consumption
// telemetry, power-theft detection (use case 1), and power-quality / fault
// monitoring with tight detection latencies (use case 2). The generators
// are deterministic so experiments replay exactly; anomalies (theft,
// voltage sags) are injected with known ground truth, letting tests score
// detectors for misses and false alarms.
package smartgrid

import (
	"fmt"
	"math"
	"math/rand"

	"securecloud/internal/sim"
)

// Reading is one smart-meter sample.
type Reading struct {
	MeterID string  `json:"meter_id"`
	Feeder  string  `json:"feeder"`
	Tick    int64   `json:"tick"` // sample index (sub-minute cadence)
	PowerKW float64 `json:"power_kw"`
	VoltV   float64 `json:"volt_v"`
}

// NominalVoltage is the reference distribution voltage.
const NominalVoltage = 230.0

// FleetConfig describes a simulated metering fleet.
type FleetConfig struct {
	Seed int64
	// Meters in the fleet, grouped MetersPerFeeder to a feeder.
	Meters          int
	MetersPerFeeder int
	// TicksPerDay is the sampling cadence (paper: sub-minute; 2880 =
	// 30-second samples).
	TicksPerDay int64
	// BaseLoadKW scales household consumption.
	BaseLoadKW float64
}

// theft describes one meter under-reporting from a given tick.
type theft struct {
	meter  int
	from   int64
	factor float64 // reported = true * factor
}

// sag describes one feeder voltage sag window.
type sag struct {
	feeder   int
	from, to int64
	depth    float64 // voltage multiplier during the sag
}

// Fleet generates readings.
type Fleet struct {
	cfg    FleetConfig
	rng    *rand.Rand
	phase  []float64 // per-meter daily phase offset
	scale  []float64 // per-meter consumption scale
	thefts map[int]theft
	sags   []sag
}

// NewFleet builds a fleet.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Meters <= 0 {
		cfg.Meters = 1000
	}
	if cfg.MetersPerFeeder <= 0 {
		cfg.MetersPerFeeder = 50
	}
	if cfg.TicksPerDay <= 0 {
		cfg.TicksPerDay = 2880
	}
	if cfg.BaseLoadKW <= 0 {
		cfg.BaseLoadKW = 0.8
	}
	rng := sim.NewRand(cfg.Seed)
	f := &Fleet{cfg: cfg, rng: rng, thefts: make(map[int]theft)}
	for i := 0; i < cfg.Meters; i++ {
		f.phase = append(f.phase, rng.Float64()*0.2)
		f.scale = append(f.scale, 0.5+rng.Float64())
	}
	return f
}

// Config returns the fleet configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// FeederOf returns the feeder name of a meter index.
func (f *Fleet) FeederOf(meter int) string {
	return fmt.Sprintf("feeder-%03d", meter/f.cfg.MetersPerFeeder)
}

// MeterName returns the canonical meter identifier.
func MeterName(meter int) string { return fmt.Sprintf("meter-%05d", meter) }

// InjectTheft makes a meter under-report by factor from the given tick.
// Ground truth for detector scoring.
func (f *Fleet) InjectTheft(meter int, fromTick int64, factor float64) {
	f.thefts[meter] = theft{meter: meter, from: fromTick, factor: factor}
}

// InjectSag makes a feeder sag to depth×nominal during [from, to).
func (f *Fleet) InjectSag(feeder int, from, to int64, depth float64) {
	f.sags = append(f.sags, sag{feeder: feeder, from: from, to: to, depth: depth})
}

// dailyShape is the canonical residential load curve: low overnight, a
// morning ramp, and an evening peak.
func dailyShape(dayFrac float64) float64 {
	morning := 0.5 * math.Exp(-squared((dayFrac-0.33)/0.07))
	evening := 1.0 * math.Exp(-squared((dayFrac-0.80)/0.09))
	return 0.25 + morning + evening
}

func squared(x float64) float64 { return x * x }

// truePower returns the actual consumption of a meter at a tick.
func (f *Fleet) truePower(meter int, tick int64) float64 {
	dayFrac := math.Mod(float64(tick)/float64(f.cfg.TicksPerDay)+f.phase[meter], 1)
	noise := 1 + 0.15*f.rng.NormFloat64()
	if noise < 0.2 {
		noise = 0.2
	}
	p := f.cfg.BaseLoadKW * f.scale[meter] * dailyShape(dayFrac) * noise
	if p < 0.01 {
		p = 0.01
	}
	return p
}

// voltage returns the voltage seen by a meter at a tick, including sags.
func (f *Fleet) voltage(meter int, tick int64) float64 {
	v := NominalVoltage * (1 + 0.01*f.rng.NormFloat64())
	feeder := meter / f.cfg.MetersPerFeeder
	for _, s := range f.sags {
		if s.feeder == feeder && tick >= s.from && tick < s.to {
			v *= s.depth
		}
	}
	return v
}

// Tick emits the fleet's meter readings and the feeder-level ground-truth
// totals for one tick. Feeder totals model the utility's own feeder
// instrumentation, which theft cannot falsify.
func (f *Fleet) Tick(tick int64) (readings []Reading, feederTrueKW map[string]float64) {
	feederTrueKW = make(map[string]float64)
	for m := 0; m < f.cfg.Meters; m++ {
		truth := f.truePower(m, tick)
		reported := truth
		if th, ok := f.thefts[m]; ok && tick >= th.from {
			reported = truth * th.factor
		}
		fd := f.FeederOf(m)
		feederTrueKW[fd] += truth
		readings = append(readings, Reading{
			MeterID: MeterName(m),
			Feeder:  fd,
			Tick:    tick,
			PowerKW: reported,
			VoltV:   f.voltage(m, tick),
		})
	}
	return readings, feederTrueKW
}
