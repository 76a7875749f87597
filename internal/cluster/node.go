package cluster

import (
	"fmt"
	"sync/atomic"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/orchestrator"
	"securecloud/internal/sim"
	"securecloud/internal/transfer"
)

// Node is one simulated cluster node: its own blob cache, its own
// attested session with the cluster's attestation service, and a link to
// the origin registry that charges every crossing chunk the cluster's
// LinkCost. Enclave platforms are per-launch (container.LaunchNode), kept
// disjoint for determinism, but namespaced under the node.
type Node struct {
	cl    *Cluster
	name  string
	index int
	cache *container.BlobCache
	// quoter is the node's own attested KeyBroker session — provisioned at
	// construction, proving the node joined the cluster's trust domain.
	quoter *attest.Quoter
	link   *link

	// Placement and fault state, guarded by cl.mu: these feed NodeInfo
	// and only change in the serial scenario loop.
	live        int
	down        bool
	partitioned bool
	isolated    bool
	byzantine   bool

	// Transfer and boot counters. Atomics: link charges arrive from
	// concurrent fetch workers, but each is a commutative sum of a pure
	// per-chunk cost, so totals are order-independent.
	linkCycles     atomic.Uint64
	chunksOverLink atomic.Uint64
	bytesOverLink  atomic.Uint64
	boots          atomic.Uint64
	warmBoots      atomic.Uint64
	coldBoots      atomic.Uint64
	chunksFetched  atomic.Uint64
	cacheHits      atomic.Uint64
	chunksFailed   atomic.Uint64
	pullCycles     atomic.Uint64
	pullFaults     atomic.Uint64
}

func newNode(cl *Cluster, i int) (*Node, error) {
	n := &Node{
		cl:    cl,
		name:  fmt.Sprintf("node%02d", i),
		index: i,
		cache: container.NewBlobCache(),
	}
	p := enclave.NewPlatform(cl.cfg.Platform)
	q, err := cl.svc.Provision(p, "cluster/"+n.name)
	if err != nil {
		return nil, err
	}
	n.quoter = q
	n.link = &link{node: n}
	return n, nil
}

// Name returns the node's stable identity ("node00", "node01", ...).
func (n *Node) Name() string { return n.name }

// Index returns the node's topology slot.
func (n *Node) Index() int { return n.index }

// Cache returns the node-local blob cache.
func (n *Node) Cache() *container.BlobCache { return n.cache }

// Source returns the node's pull source: the origin registry behind the
// node's link (cost-charged, partition-aware, byzantine-injectable).
func (n *Node) Source() container.PullSource { return n.link }

// Launch allocates a container engine on this node: a fresh simulated
// platform namespaced under the node, attested with the cluster's
// service, pulling through the node's link into the node's cache.
func (n *Node) Launch(id string) (*container.Engine, error) {
	eng, err := container.LaunchNode(n.cl.svc, n.name+"/"+id, n.link, n.cl.cfg.Platform)
	if err != nil {
		return nil, err
	}
	eng.Cache = n.cache
	return eng, nil
}

// RecordBoot folds one successful boot's pull stats into the node and
// cluster totals and classifies it: warm (≥1 chunk served from the node
// cache) or cold. Returns "warm" or "cold".
func (n *Node) RecordBoot(ps container.PullStats) string {
	n.boots.Add(1)
	n.chunksFetched.Add(uint64(ps.ChunksFetch))
	n.cacheHits.Add(uint64(ps.CacheHits))
	n.pullCycles.Add(uint64(ps.SerialCycles))
	n.pullFaults.Add(ps.Faults)
	kind := "cold"
	if ps.CacheHits > 0 {
		kind = "warm"
		n.warmBoots.Add(1)
	} else {
		n.coldBoots.Add(1)
	}
	n.cl.recordBootProfile(kind, ps.ChunksFetch)
	return kind
}

// RecordFailedPull folds a failed pull's stats into the node totals (the
// byzantine fail-closed path: chunks crossed the link, none were cached).
func (n *Node) RecordFailedPull(ps container.PullStats) {
	n.chunksFailed.Add(uint64(ps.ChunksFailed))
	n.pullCycles.Add(uint64(ps.SerialCycles))
	n.pullFaults.Add(ps.Faults)
}

// LinkTotals returns the node's lifetime link charges.
func (n *Node) LinkTotals() (cycles sim.Cycles, chunks, bytes uint64) {
	return sim.Cycles(n.linkCycles.Load()), n.chunksOverLink.Load(), n.bytesOverLink.Load()
}

// infoLocked snapshots the node as a placement candidate (cl.mu held).
func (n *Node) infoLocked(chunks []cryptbox.Digest) orchestrator.NodeInfo {
	warm := 0
	for _, d := range chunks {
		if n.cache.Contains(d) {
			warm++
		}
	}
	return orchestrator.NodeInfo{
		Name:        n.name,
		Index:       n.index,
		Live:        n.live,
		Capacity:    n.cl.cfg.NodeCapacity,
		WarmChunks:  warm,
		TotalChunks: len(chunks),
		Down:        n.down,
		Unreachable: n.partitioned,
		Isolated:    n.isolated,
	}
}

// snapshotLocked emits the node's metrics into out (cl.mu held).
func (n *Node) snapshotLocked(out map[string]float64) {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	cs := n.cache.Stats()
	pre := n.name + "."
	out[pre+"live"] = float64(n.live)
	out[pre+"down"] = b(n.down)
	out[pre+"partitioned"] = b(n.partitioned)
	out[pre+"isolated"] = b(n.isolated)
	out[pre+"boots"] = float64(n.boots.Load())
	out[pre+"warm_boots"] = float64(n.warmBoots.Load())
	out[pre+"cold_boots"] = float64(n.coldBoots.Load())
	out[pre+"chunks_fetched"] = float64(n.chunksFetched.Load())
	out[pre+"cache_hits"] = float64(n.cacheHits.Load())
	out[pre+"chunks_failed"] = float64(n.chunksFailed.Load())
	out[pre+"pull_cycles"] = float64(n.pullCycles.Load())
	out[pre+"pull_faults"] = float64(n.pullFaults.Load())
	out[pre+"link_cycles"] = float64(n.linkCycles.Load())
	out[pre+"chunks_over_link"] = float64(n.chunksOverLink.Load())
	out[pre+"bytes_over_link"] = float64(n.bytesOverLink.Load())
	out[pre+"cache_blobs"] = float64(cs.Blobs)
	out[pre+"cache_bytes"] = float64(cs.Bytes)
}

// link is the node's view of the origin registry: every chunk that
// crosses is charged the cluster's LinkCost (a pure function of its
// length, summed atomically — order-independent); a crashed or
// partitioned node's link refuses; a byzantine-targeted node receives
// tampered bytes, which the digest verification downstream rejects before
// they can reach the cache.
type link struct {
	node *Node
}

// state reads the fault flags the link acts on, consistently.
func (l *link) state() (unreachable, byzantine bool) {
	cl := l.node.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return l.node.down || l.node.partitioned, l.node.byzantine
}

// Manifest implements container.PullSource.
func (l *link) Manifest(name, tag string) (image.Manifest, error) {
	if unreachable, _ := l.state(); unreachable {
		return image.Manifest{}, fmt.Errorf("%w: %s", ErrNodeUnreachable, l.node.name)
	}
	return l.node.cl.origin.Manifest(name, tag)
}

// LayerManifest implements container.PullSource.
func (l *link) LayerManifest(d cryptbox.Digest) (*transfer.Manifest, error) {
	if unreachable, _ := l.state(); unreachable {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnreachable, l.node.name)
	}
	return l.node.cl.origin.LayerManifest(d)
}

// Blob implements container.PullSource: fetch from the origin, charge the
// link, and — when the registry is byzantine toward this node — flip one
// byte of a copy so the chunk fails digest verification downstream.
func (l *link) Blob(d cryptbox.Digest) ([]byte, error) {
	unreachable, byzantine := l.state()
	if unreachable {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnreachable, l.node.name)
	}
	b, err := l.node.cl.origin.Blob(d)
	if err != nil {
		return nil, err
	}
	n := l.node
	n.linkCycles.Add(uint64(DefaultLinkCost.ChunkCycles(len(b))))
	n.chunksOverLink.Add(1)
	n.bytesOverLink.Add(uint64(len(b)))
	if byzantine {
		b = append([]byte(nil), b...)
		if len(b) > 0 {
			b[0] ^= 0x5A
		}
	}
	return b, nil
}
