package orchestrator

import (
	"errors"
	"testing"

	"securecloud/internal/sim"
)

// TestLocalityPlacerScoring pins the scoring rule: warm caches attract,
// load repels, and exact ties break on the lowest index.
func TestLocalityPlacerScoring(t *testing.T) {
	cases := []struct {
		name  string
		nodes []NodeInfo
		want  int
	}{
		{"warm beats cold", []NodeInfo{
			{Index: 0, WarmChunks: 0, TotalChunks: 10},
			{Index: 1, WarmChunks: 10, TotalChunks: 10},
		}, 1},
		{"load repels", []NodeInfo{
			{Index: 0, Live: 2, TotalChunks: 10},
			{Index: 1, Live: 0, TotalChunks: 10},
		}, 1},
		{"tie breaks low index", []NodeInfo{
			{Index: 0, TotalChunks: 10},
			{Index: 1, TotalChunks: 10},
			{Index: 2, TotalChunks: 10},
		}, 0},
		{"full warm node skipped", []NodeInfo{
			{Index: 0, WarmChunks: 10, TotalChunks: 10, Live: 1, Capacity: 1},
			{Index: 1, TotalChunks: 10, Capacity: 1},
		}, 1},
		{"down/unreachable/isolated skipped", []NodeInfo{
			{Index: 0, Down: true},
			{Index: 1, Unreachable: true},
			{Index: 2, Isolated: true},
			{Index: 3},
		}, 3},
		{"warm outweighs one live replica", []NodeInfo{
			// warmFraction 1 · 1.5 − 1 · 1.0 = 0.5 > 0 for the cold idle node.
			{Index: 0, WarmChunks: 10, TotalChunks: 10, Live: 1},
			{Index: 1, TotalChunks: 10},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := PlaceByLocality(tc.nodes)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("placed on %d, want %d", got, tc.want)
			}
		})
	}
}

// TestLocalityPlacerNoEligibleNode: every node excluded → fail closed.
func TestLocalityPlacerNoEligibleNode(t *testing.T) {
	_, err := PlaceByLocality([]NodeInfo{
		{Index: 0, Down: true},
		{Index: 1, Live: 1, Capacity: 1},
	})
	if !errors.Is(err, ErrNoEligibleNode) {
		t.Fatalf("got %v, want ErrNoEligibleNode", err)
	}
	if _, err := PlaceByLocality(nil); !errors.Is(err, ErrNoEligibleNode) {
		t.Fatalf("empty candidate set: got %v, want ErrNoEligibleNode", err)
	}
}

// TestLocalityPlacerPermutationInvariant is the placement purity property:
// the chosen node never depends on the order the candidates are presented
// in (map-iteration order must not leak into topology decisions).
func TestLocalityPlacerPermutationInvariant(t *testing.T) {
	rng := sim.NewRand(1234)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(rng.Uint64()%7)
		nodes := make([]NodeInfo, n)
		for i := range nodes {
			nodes[i] = NodeInfo{
				Index:       i,
				Live:        int(rng.Uint64() % 3),
				Capacity:    int(rng.Uint64() % 3), // 0 = unbounded
				WarmChunks:  int(rng.Uint64() % 11),
				TotalChunks: 10,
				Down:        rng.Uint64()%5 == 0,
				Unreachable: rng.Uint64()%7 == 0,
				Isolated:    rng.Uint64()%11 == 0,
			}
		}
		ref, refErr := PlaceByLocality(nodes)
		for shuffle := 0; shuffle < 8; shuffle++ {
			perm := append([]NodeInfo(nil), nodes...)
			for i := len(perm) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				perm[i], perm[j] = perm[j], perm[i]
			}
			got, err := PlaceByLocality(perm)
			if (err == nil) != (refErr == nil) || got != ref {
				t.Fatalf("trial %d: permutation changed placement: %d/%v vs %d/%v",
					trial, got, err, ref, refErr)
			}
		}
	}
}
