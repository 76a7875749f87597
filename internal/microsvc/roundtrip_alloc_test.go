//go:build !race

// The race detector makes sync.Pool drop a share of what it is given on
// purpose, so pooled reply frames miss the pool at random and a host
// allocation ceiling measures the detector, not the plane.

package microsvc

import (
	"fmt"
	"runtime"
	"testing"
)

// TestPlaneRoundTripAllocationCeiling bounds the host bytes one Send, Step
// and Poll of eight 16 KiB requests allocates. What must be allocated per
// body is the client's request frame, the two bus seals and the handler's
// reply: four copies. The ceiling of five leaves room for pooled reply
// frames missing the pool; opening a drained buffer into a fresh one
// instead of in place, anywhere on the path, adds a copy per hop.
func TestPlaneRoundTripAllocationCeiling(t *testing.T) {
	rs, client := roundTripPlane(t)
	reqs := make([]PlaneRequest, 8)
	bodyBytes := 0
	for i := range reqs {
		reqs[i] = PlaneRequest{Key: fmt.Sprintf("meter-%02d", i), Body: make([]byte, 16<<10)}
		bodyBytes += 16 << 10
	}
	roundTrip(t, rs, client, reqs) // warm up: first-touch state, pooled frames
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip(t, rs, client, reqs)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	ratio := perRound / float64(bodyBytes)
	t.Logf("one round trip of 8 x 16 KiB allocates %.0f B, %.2f x the body bytes", perRound, ratio)
	if ratio > 5 {
		t.Fatalf("one round trip allocates %.2f x the body bytes, ceiling 5", ratio)
	}
}
