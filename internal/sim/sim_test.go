package sim

import (
	"testing"
	"time"
)

func TestCyclesDuration(t *testing.T) {
	// One full second of cycles must convert to ~1s.
	c := Cycles(CPUFrequencyHz)
	d := c.Duration()
	if d < 999*time.Millisecond || d > 1001*time.Millisecond {
		t.Fatalf("Duration of %d cycles = %v, want ~1s", c, d)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := Zipf(r, 1.2, 1000)
	counts := make(map[uint64]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Uint64()]++
	}
	// Rank-0 must dominate rank-10 under any Zipf exponent > 1.
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: count[0]=%d count[10]=%d", counts[0], counts[10])
	}
}

func TestZipfDegenerateExponent(t *testing.T) {
	// s <= 1 must be clamped rather than panic (rand.NewZipf requires s > 1).
	r := NewRand(1)
	z := Zipf(r, 0.5, 10)
	if z == nil {
		t.Fatal("Zipf returned nil for clamped exponent")
	}
	_ = z.Uint64()
}
