package enclave

import (
	"math"
	"math/rand"
	"testing"

	"securecloud/internal/sim"
)

// Closed-form oracles for the LLC: under the independent reference model
// (every access an independent draw from a fixed popularity over L lines
// per set) the miss rate of an A-way LRU set is known without simulating
// it, so these tests check the cache against arithmetic rather than
// against another implementation of itself.

// oracleSets is the set count of the oracle caches: enough sets that the
// miss rate averages over many independent ones.
const oracleSets = 64

// irmMissRate drives an assoc-way LRU cache of oracleSets sets with draws
// accesses, each to a uniformly random set and the line of that set that
// rank() names, and returns the miss rate after a warm-up of warm draws.
func irmMissRate(assoc int, rank func() uint64, r *rand.Rand, warm, draws int) float64 {
	c := newLLC(oracleSets*uint64(assoc)*64, 64, 4096, assoc)
	misses := 0
	for i := -warm; i < draws; i++ {
		tag := uint64(r.Intn(oracleSets)) + rank()*oracleSets
		if !c.accessTag(tag) && i >= 0 {
			misses++
		}
	}
	return float64(misses) / float64(draws)
}

// TestLLCUniformIRMMissRate: with uniform draws over L lines per set, a
// full A-way set holds A of them whatever it evicted, so every demand
// policy misses 1 - A/L of the time. The band is ±0.01 on 200k draws,
// ten standard errors.
func TestLLCUniformIRMMissRate(t *testing.T) {
	for _, tc := range []struct{ assoc, lines int }{{16, 64}, {16, 20}, {8, 64}, {4, 5}} {
		r := sim.NewRand(int64(tc.assoc*1000 + tc.lines))
		rank := func() uint64 { return uint64(r.Intn(tc.lines)) }
		got := irmMissRate(tc.assoc, rank, r, 4*oracleSets*tc.lines, 200_000)
		want := 1 - float64(tc.assoc)/float64(tc.lines)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("assoc %d over %d lines per set: miss rate %.4f, 1 - A/L = %.4f (band ±0.01)",
				tc.assoc, tc.lines, got, want)
		}
	}
}

// cheMissRate is Che's approximation of the miss rate of an A-way LRU
// cache under IRM draws with popularities p: each line stays cached for
// a characteristic time T after its last use, where T solves
// sum(1 - exp(-p_i T)) = A, so line i hits with probability
// 1 - exp(-p_i T).
func cheMissRate(assoc int, p []float64) float64 {
	occupancy := func(T float64) float64 {
		n := 0.0
		for _, pi := range p {
			n += 1 - math.Exp(-pi*T)
		}
		return n
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < float64(assoc) {
		hi *= 2
	}
	for range 200 {
		if mid := (lo + hi) / 2; occupancy(mid) < float64(assoc) {
			lo = mid
		} else {
			hi = mid
		}
	}
	miss := 0.0
	for _, pi := range p {
		miss += pi * math.Exp(-pi*lo)
	}
	return miss
}

// TestLLCZipfMatchesChe: with sim.Zipf draws over L lines per set (line k
// drawn with probability proportional to (1+k)^-s), the LRU miss rate
// matches Che's approximation within ±0.015. The uniform oracle cannot
// tell LRU from any other demand policy; this one can.
func TestLLCZipfMatchesChe(t *testing.T) {
	for _, tc := range []struct {
		assoc, lines int
		s            float64
	}{{16, 256, 1.1}, {16, 1024, 1.3}, {8, 128, 1.2}} {
		r := sim.NewRand(int64(tc.assoc*1000 + tc.lines))
		z := sim.Zipf(r, tc.s, uint64(tc.lines))
		got := irmMissRate(tc.assoc, z.Uint64, r, 4*oracleSets*tc.lines, 400_000)
		p := make([]float64, tc.lines)
		sum := 0.0
		for k := range p {
			p[k] = math.Pow(float64(1+k), -tc.s)
			sum += p[k]
		}
		for k := range p {
			p[k] /= sum
		}
		want := cheMissRate(tc.assoc, p)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("assoc %d over %d lines per set, Zipf s=%.1f: miss rate %.4f, Che's approximation %.4f (band ±0.015)",
				tc.assoc, tc.lines, tc.s, got, want)
		}
	}
}
