//go:build !race

// The race detector makes sync.Pool drop a share of what it is given, so
// a pool round allocates under -race by design.

package cryptbox

import "testing"

// TestScratchRoundAllocatesNothing: the pool holds *[]byte, so a
// GetScratch + PutScratch round boxes no slice header.
func TestScratchRoundAllocatesNothing(t *testing.T) {
	PutScratch(GetScratch())
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetScratch()
		*b = append(*b, "transient"...)
		PutScratch(b)
	})
	if allocs != 0 {
		t.Fatalf("a scratch round allocated %.2f times, want 0", allocs)
	}
}
