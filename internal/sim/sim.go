// Package sim provides the deterministic simulation substrate shared by the
// SecureCloud reproduction: the simulated-cycle unit, seeded pseudo-random
// helpers and a bounded parallel loop.
//
// Performance-sensitive components (the SGX enclave simulator and every
// layer that charges through it) count costs in Cycles instead of reading
// the wall clock; the one ledger those cycles land in is enclave.Memory's
// per-cause accounting. This makes all experiments reproducible
// bit-for-bit across runs and machines, which is what lets the benchmark
// harness regenerate the paper's figures deterministically.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// CPUFrequencyHz is the reference core frequency used to convert simulated
// cycles into simulated wall time. SGX v1 parts (Skylake) shipped around
// 3.4 GHz; the absolute value only scales reported times, never ratios.
const CPUFrequencyHz = 3_400_000_000

// Cycles counts simulated CPU cycles.
type Cycles uint64

// Duration converts a cycle count into simulated wall time.
func (c Cycles) Duration() time.Duration {
	return time.Duration(float64(c) / CPUFrequencyHz * float64(time.Second))
}

// MillisToCycles converts simulated milliseconds into cycles at the
// reference frequency: the budget conversion for simulated-time control
// loops (a monitoring tick of T sim-ms grants each replica
// MillisToCycles(T) cycles of service).
func MillisToCycles(ms float64) Cycles {
	return Cycles(ms * CPUFrequencyHz / 1000)
}

// String renders the cycle count with its simulated-time equivalent.
func (c Cycles) String() string {
	return fmt.Sprintf("%d cycles (%v)", uint64(c), c.Duration())
}

// NewRand returns a deterministic pseudo-random source for the given seed.
// All stochastic workload generators in the repository derive their
// randomness from here so experiments replay identically.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf returns a Zipf-distributed generator over [0, n) with exponent s>1.
// Content-based workloads (SCBR attribute popularity, smart-grid topic
// popularity) are classically Zipfian.
func Zipf(r *rand.Rand, s float64, n uint64) *rand.Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return rand.NewZipf(r, s, 1, n-1)
}
