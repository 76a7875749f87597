package orchestrator

import (
	"errors"
	"sort"
)

// Placement: where a scale-out replica boots, not just how many replicas
// run. The orchestrator's Observe loop decides counts; PlaceByLocality
// decides which node hosts each new replica, scoring candidates by blob-cache
// locality (warm chunks for the service's image) against current load.
// Placement is topology: it must be a pure function of the observed
// NodeInfo set — independent of map-iteration order, host timing and
// worker counts — so per-node simulated figures stay bit-identical.

// ErrNoEligibleNode means every candidate node is down, isolated,
// unreachable or at capacity — the launch fails closed and the
// orchestrator retries next tick.
var ErrNoEligibleNode = errors.New("orchestrator: no eligible node for placement")

// NodeInfo is one candidate node's observation at placement time.
type NodeInfo struct {
	// Name is the node's stable identity; Index its topology slot.
	Name  string
	Index int
	// Live is the number of replicas currently placed on the node;
	// Capacity its replica-slot budget (0 = unbounded).
	Live     int
	Capacity int
	// WarmChunks counts the service image's chunks already in the node's
	// blob cache; TotalChunks the image's unique chunk count.
	WarmChunks  int
	TotalChunks int
	// Down / Unreachable / Isolated exclude the node: crashed, cut off by
	// a network partition, or quarantined after serving tampered chunks.
	Down        bool
	Unreachable bool
	Isolated    bool
}

// eligible reports whether the node can accept one more replica.
func (n NodeInfo) eligible() bool {
	if n.Down || n.Unreachable || n.Isolated {
		return false
	}
	return n.Capacity <= 0 || n.Live < n.Capacity
}

// warmFraction is the node's cache-locality score in [0, 1].
func (n NodeInfo) warmFraction() float64 {
	if n.TotalChunks <= 0 {
		return 0
	}
	return float64(n.WarmChunks) / float64(n.TotalChunks)
}

// Locality scoring weights: a fully warm cache is worth one and a half
// live replicas of load.
const (
	warmWeight  = 1.5
	loadPenalty = 1.0
)

// PlaceByLocality chooses the node a new replica boots on. It scores each
// eligible node
//
//	warmFraction·warmWeight − Live·loadPenalty
//
// and returns the Index of the highest score, breaking ties on the lowest
// Index, or ErrNoEligibleNode when no candidate can host the replica. Warm
// caches attract replicas (a warm boot fetches strictly fewer chunks than
// a cold one); load spreads them. The choice is a pure function of the
// nodes slice contents, in any order — the cluster property tests pin
// permutation invariance.
func PlaceByLocality(nodes []NodeInfo) (int, error) {
	// Sort a copy by Index so the scan order — and therefore every
	// tie-break — is independent of the caller's slice order.
	cand := append([]NodeInfo(nil), nodes...)
	sort.Slice(cand, func(i, j int) bool { return cand[i].Index < cand[j].Index })
	best := -1
	var bestScore float64
	for _, n := range cand {
		if !n.eligible() {
			continue
		}
		score := n.warmFraction()*warmWeight - float64(n.Live)*loadPenalty
		if best < 0 || score > bestScore {
			best = n.Index
			bestScore = score
		}
	}
	if best < 0 {
		return 0, ErrNoEligibleNode
	}
	return best, nil
}
