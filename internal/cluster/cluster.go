// Package cluster simulates a multi-node SGX cluster for the application
// plane (paper §VI): N nodes, each owning its own enclave platforms, its
// own node-local container.BlobCache, and its own attested KeyBroker
// session, joined by links whose chunk-transfer cost is charged through
// the transfer substrate's analytic LinkCost model.
// orchestrator.PlaceByLocality decides which node hosts each replica; the cluster tracks
// per-node placement, boot/pull totals and fault state (crashed,
// partitioned, byzantine, isolated).
//
// Topology vs execution: everything this package counts — link cycles,
// chunks over the link, boots, warm/cold classification, pull totals — is
// a pure function of the config and the observation order (which launch
// happened when). Link charges are commutative atomic sums of a pure
// per-chunk cost, so concurrent fetch workers cannot reorder them into
// different totals; per-node figures are bit-identical across host worker
// counts.
package cluster

import (
	"errors"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/orchestrator"
	"securecloud/internal/transfer"
)

// ErrNodeUnreachable marks a pull over a link whose node is crashed or
// partitioned away: the fetch fails closed before any chunk crosses.
var ErrNodeUnreachable = errors.New("cluster: node unreachable")

// DefaultLinkCost is the inter-node link model every node's registry link
// is charged at: 2000 cycles per-chunk latency plus 400 cycles per KiB.
var DefaultLinkCost = transfer.LinkCost{LatencyCycles: 2000, CyclesPerKiB: 400}

// Config shapes a simulated cluster.
type Config struct {
	// Nodes is the node count (default 1).
	Nodes int
	// NodeCapacity bounds replicas per node (0 = unbounded). The gateway
	// front-end does not consume a slot.
	NodeCapacity int
	// Platform configures the simulated platforms of enclaves launched on
	// the nodes (zero value = platform defaults).
	Platform enclave.Config
}

// Cluster is a set of simulated nodes sharing one origin registry.
type Cluster struct {
	cfg    Config
	svc    *attest.Service
	origin container.PullSource

	// mu serializes placement (Place/Release and the fault transitions
	// that feed NodeInfo). Launches happen in observation order — the
	// orchestrator's serial Observe loop — so placement stays a pure
	// function of config + observation order.
	mu    sync.Mutex
	nodes []*Node

	// Cluster-wide boot profile (cl.mu): warm vs cold boot counts and the
	// extreme fetch counts of each class. Min/max are commutative, so the
	// profile is independent of boot observation order too.
	warmBoots    int
	coldBoots    int
	warmFetchMax int // max chunks fetched by any warm boot (-1 until one)
	coldFetchMin int // min chunks fetched by any cold boot (-1 until one)
}

// BootProfile summarises the cluster's lifetime boots: how many were warm
// (≥1 chunk served from the node cache) vs cold, and the extreme
// chunks-fetched counts of each class — the locality story's headline
// figure (every warm boot must fetch strictly fewer chunks than every
// cold one).
type BootProfile struct {
	WarmBoots    int
	ColdBoots    int
	WarmFetchMax int // -1 when no warm boot happened
	ColdFetchMin int // -1 when no cold boot happened
}

// Boots returns the cluster-wide boot profile.
func (cl *Cluster) Boots() BootProfile {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return BootProfile{
		WarmBoots: cl.warmBoots, ColdBoots: cl.coldBoots,
		WarmFetchMax: cl.warmFetchMax, ColdFetchMin: cl.coldFetchMin,
	}
}

// recordBootProfile folds one boot classification into the cluster-wide
// profile.
func (cl *Cluster) recordBootProfile(kind string, chunksFetched int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if kind == "warm" {
		if cl.warmBoots == 0 || chunksFetched > cl.warmFetchMax {
			cl.warmFetchMax = chunksFetched
		}
		cl.warmBoots++
		return
	}
	if cl.coldBoots == 0 || chunksFetched < cl.coldFetchMin {
		cl.coldFetchMin = chunksFetched
	}
	cl.coldBoots++
}

// New builds a cluster of cfg.Nodes nodes against the origin pull source.
// Each node gets its own blob cache and its own attested session with svc
// (platform "cluster/node<i>"), the node's identity on the key-broker
// plane.
func New(svc *attest.Service, origin container.PullSource, cfg Config) (*Cluster, error) {
	if svc == nil || origin == nil {
		return nil, errors.New("cluster: needs an attestation service and an origin pull source")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	cl := &Cluster{
		cfg: cfg, svc: svc, origin: origin,
		warmFetchMax: -1, coldFetchMin: -1,
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := newNode(cl, i)
		if err != nil {
			return nil, err
		}
		cl.nodes = append(cl.nodes, n)
	}
	return cl, nil
}

// Node returns node i (panics out of range, like a slice).
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// ImageChunks resolves the unique chunk-digest set of name:tag through the
// origin — the warm-chunk reference set placement scores nodes against.
func (cl *Cluster) ImageChunks(name, tag string) ([]cryptbox.Digest, error) {
	m, err := cl.origin.Manifest(name, tag)
	if err != nil {
		return nil, err
	}
	seen := make(map[cryptbox.Digest]struct{})
	var unique []cryptbox.Digest
	for _, ld := range m.LayerDigests {
		lm, err := cl.origin.LayerManifest(ld)
		if err != nil {
			return nil, err
		}
		for _, leaf := range lm.Leaves {
			if _, dup := seen[leaf]; dup {
				continue
			}
			seen[leaf] = struct{}{}
			unique = append(unique, leaf)
		}
	}
	return unique, nil
}

// Placement is one granted replica slot on a node. Release returns the
// slot (idempotent); the cluster keeps counting the node's boots either
// way.
type Placement struct {
	node     *Node
	released bool
}

// Node returns the placed-on node.
func (p *Placement) Node() *Node { return p.node }

// Release returns the slot to the node.
func (p *Placement) Release() {
	cl := p.node.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if p.released {
		return
	}
	p.released = true
	p.node.live--
}

// Place asks orchestrator.PlaceByLocality for a node able to host one more
// replica, scoring blob-cache locality against the given chunk set, and reserves a slot on
// it. Returns orchestrator.ErrNoEligibleNode (wrapped) when every node is
// down, isolated, unreachable or full.
func (cl *Cluster) Place(chunks []cryptbox.Digest) (*Placement, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	infos := make([]orchestrator.NodeInfo, len(cl.nodes))
	for i, n := range cl.nodes {
		infos[i] = n.infoLocked(chunks)
	}
	idx, err := orchestrator.PlaceByLocality(infos)
	if err != nil {
		return nil, err
	}
	n := cl.nodes[idx]
	n.live++
	return &Placement{node: n}, nil
}

// CrashNode marks node i down: its replicas are dead and its link refuses
// fetches. Returns the node name.
func (cl *Cluster) CrashNode(i int) string {
	n := cl.nodes[i]
	cl.mu.Lock()
	n.down = true
	cl.mu.Unlock()
	return n.name
}

// PartitionNode cuts node i off the network: placement skips it and its
// link refuses fetches until HealNode. Returns the node name.
func (cl *Cluster) PartitionNode(i int) string {
	n := cl.nodes[i]
	cl.mu.Lock()
	n.partitioned = true
	cl.mu.Unlock()
	return n.name
}

// HealNode reverses a partition. Returns the node name.
func (cl *Cluster) HealNode(i int) string {
	n := cl.nodes[i]
	cl.mu.Lock()
	n.partitioned = false
	cl.mu.Unlock()
	return n.name
}

// SetByzantine makes the registry serve node i tampered chunks (or stops
// doing so). The node's pulls fail closed on digest verification; nothing
// tampered ever enters its cache. Returns the node name.
func (cl *Cluster) SetByzantine(i int, v bool) string {
	n := cl.nodes[i]
	cl.mu.Lock()
	n.byzantine = v
	cl.mu.Unlock()
	return n.name
}

// Isolate quarantines a node after a fail-closed pull: placement routes
// around it until un-isolated. Returns whether the node was newly
// isolated.
func (cl *Cluster) Isolate(n *Node) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if n.isolated {
		return false
	}
	n.isolated = true
	return true
}

// Audit verifies every cached chunk on every node against its digest and
// returns the number of tampered entries — the cache-poisoning tripwire
// the bench gate pins to zero (BlobCache.Put verifies before storing, so
// a nonzero count means the poisoning guard itself is broken).
func (cl *Cluster) Audit() int {
	total := 0
	for _, n := range cl.nodes {
		total += n.Cache().Audit()
	}
	return total
}

// StatsName implements stats.Source.
func (cl *Cluster) StatsName() string { return "cluster" }

// Snapshot implements stats.Source: the flat per-node metric map, every
// value a deterministic simulated figure.
func (cl *Cluster) Snapshot() map[string]float64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make(map[string]float64, len(cl.nodes)*18+4)
	for _, n := range cl.nodes {
		n.snapshotLocked(out)
	}
	out["warm_boots"] = float64(cl.warmBoots)
	out["cold_boots"] = float64(cl.coldBoots)
	out["warm_fetch_max"] = float64(cl.warmFetchMax)
	out["cold_fetch_min"] = float64(cl.coldFetchMin)
	return out
}
