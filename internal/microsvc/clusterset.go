package microsvc

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/cluster"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
	"securecloud/internal/sim"
)

// This file wires the replica set onto a simulated multi-node cluster:
// every replica launch asks the cluster for a node (scored by
// blob-cache locality against the service image's chunk set, and current
// load), boots through that node's link and cache, and the node-level
// fault operations (crash, partition, byzantine registry) map onto the
// replica-level primitives the orchestrator already reacts to.

// ClusterSpec configures a scenario's simulated cluster. Everything here
// is topology: it shapes placement, link charges and pull totals, and
// therefore the simulated figures.
type ClusterSpec struct {
	// Nodes is the node count (default 1); node 0 is the gateway the
	// front-end boots on.
	Nodes int
	// NodeCapacity bounds serving replicas per node (0 = unbounded). The
	// gateway front-end does not consume a slot.
	NodeCapacity int
}

// scenarioImageKiB sizes the scenario image's entrypoint: big enough that
// a cold pull crosses the link as a double-digit chunk count, so warm vs
// cold boot cost is unmistakable in the pull stats.
const scenarioImageKiB = 640

// ClusterSet is a ReplicaSet whose replicas are placed on the nodes of a
// simulated cluster. It embeds the set (so it is the same
// orchestrator.Launcher) and adds the node-level fault surface.
type ClusterSet struct {
	*ReplicaSet
	cl          *cluster.Cluster
	imageChunks []cryptbox.Digest

	mu     sync.Mutex
	onNode map[string]string // replica id → node name
	events []string
}

// NewClusterReplicaSet builds a replica set whose boots go through the
// cluster: the front-end boots on the gateway (node 0), every replica on
// the node the placer chooses. A boot that fails chunk verification
// isolates its node (fail closed) before the error propagates.
func NewClusterReplicaSet(bus *eventbus.Bus, kb *attest.KeyBroker, name string, handler Handler, cfg ReplicaSetConfig, spec ContainerSpec, cl *cluster.Cluster) (*ClusterSet, error) {
	if spec.CAS == nil || spec.Image == "" {
		return nil, errors.New("microsvc: incomplete container spec for cluster set")
	}
	chunks, err := cl.ImageChunks(spec.Image, spec.Tag)
	if err != nil {
		return nil, err
	}
	cs := &ClusterSet{
		cl: cl, imageChunks: chunks,
		onNode: make(map[string]string),
	}
	boot := func(id string) (bootResult, error) {
		var node *cluster.Node
		var pl *cluster.Placement
		if strings.HasSuffix(id, "/fe") {
			// The front-end is the service's gateway: it lives on node 0
			// and does not consume a replica slot — but its image pull
			// warms the gateway's cache like any other boot.
			node = cl.Node(0)
		} else {
			placed, perr := cl.Place(chunks)
			if perr != nil {
				return bootResult{}, perr
			}
			pl = placed
			node = pl.Node()
		}
		release := func() {
			if pl != nil {
				pl.Release()
			}
		}
		eng, err := node.Launch(id)
		if err != nil {
			release()
			return bootResult{}, err
		}
		c, err := eng.Run(spec.Image, spec.Tag, spec.CAS)
		if err != nil {
			node.RecordFailedPull(eng.LastPullStats())
			if errors.Is(err, container.ErrChunkVerify) && cl.Isolate(node) {
				cs.noteEvent(fmt.Sprintf("isolate %s (chunk verify)", node.Name()))
			}
			release()
			return bootResult{}, err
		}
		ps := eng.LastPullStats()
		kind := node.RecordBoot(ps)
		cs.noteEvent(fmt.Sprintf("place %s on %s (%s, fetched=%d cached=%d)",
			id, node.Name(), kind, ps.ChunksFetch, ps.CacheHits))
		cs.track(id, node.Name())
		enc := c.Runtime.Enclave()
		arena, err := enc.HeapArena()
		if err != nil {
			c.Stop()
			cs.untrack(id)
			release()
			return bootResult{}, err
		}
		stop := func() {
			c.Stop()
			cs.untrack(id)
			release()
		}
		return bootResult{enc: enc, arena: arena, quoter: eng.Quoter, stop: stop}, nil
	}
	rs, err := newReplicaSet(bus, kb, name, handler, cfg, boot)
	if err != nil {
		return nil, err
	}
	cs.ReplicaSet = rs
	return cs, nil
}

func (cs *ClusterSet) track(id, node string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.onNode[id] = node
}

func (cs *ClusterSet) untrack(id string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.onNode, id)
}

// replicasOn returns the sorted replica IDs currently tracked on a node —
// sorted so node-fault fan-out is independent of map-iteration order.
func (cs *ClusterSet) replicasOn(node string) []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var ids []string
	for id, n := range cs.onNode {
		if n == node {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// noteEvent records one placement/isolation event for the scenario trace.
func (cs *ClusterSet) noteEvent(s string) {
	cs.mu.Lock()
	cs.events = append(cs.events, s)
	cs.mu.Unlock()
}

// DrainEvents returns and clears the recorded events, in order.
func (cs *ClusterSet) DrainEvents() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ev := cs.events
	cs.events = nil
	return ev
}

// CrashNode kills a node: the node goes down (link refuses, placement
// skips it) and every replica on it crashes — the orchestrator reschedules
// them onto surviving nodes. The front-end survives a gateway crash (the
// gateway going down is out of this model's scope). Returns the node name
// and the crashed replica IDs.
func (cs *ClusterSet) CrashNode(i int) (string, []string) {
	name := cs.cl.CrashNode(i)
	ids := cs.replicasOn(name)
	for _, id := range ids {
		cs.InjectCrashID(id)
	}
	return name, ids
}

// PartitionNode cuts a node off the network: its link refuses, placement
// skips it, and its replicas become unreachable — routed requests shed
// deterministically until the orchestrator reschedules. Returns the node
// name and the affected replica IDs.
func (cs *ClusterSet) PartitionNode(i int) (string, []string) {
	name := cs.cl.PartitionNode(i)
	ids := cs.replicasOn(name)
	for _, id := range ids {
		cs.SetReplicaUnreachable(id, true)
	}
	return name, ids
}

// HealNode reverses a partition; replicas still tracked on the node (if
// the orchestrator has not already rescheduled them) become reachable
// again. Returns the node name.
func (cs *ClusterSet) HealNode(i int) string {
	name := cs.cl.HealNode(i)
	for _, id := range cs.replicasOn(name) {
		cs.SetReplicaUnreachable(id, false)
	}
	return name
}

// SetByzantineNode makes the registry serve node i tampered chunks: its
// pulls fail closed on digest verification and the node isolates on first
// use. Returns the node name.
func (cs *ClusterSet) SetByzantineNode(i int) string {
	return cs.cl.SetByzantine(i, true)
}

// foldMetrics merges the cluster's per-node snapshot and the cluster-level
// derived figures into a scenario metric map.
func (cs *ClusterSet) foldMetrics(m map[string]float64) {
	for k, v := range cs.cl.Snapshot() {
		m["cluster."+k] = v
	}
	bp := cs.cl.Boots()
	ok := 0.0
	if bp.WarmBoots > 0 && bp.ColdBoots > 0 && bp.WarmFetchMax < bp.ColdFetchMin {
		ok = 1
	}
	m["warm_lt_cold_ok"] = ok
	m["tampered_cached"] = float64(cs.cl.Audit())
	shedU, servedU := cs.UnreachableStats()
	m["partition_shed"] = float64(shedU)
	m["served_via_unreachable"] = float64(servedU)
}

// buildClusterPlane constructs the cluster-mode application plane for one
// scenario: a deterministic secure image (signing key and entrypoint bytes
// derived from the spec seed), an in-process registry holding it, a CAS,
// the cluster itself, and the cluster-placed replica set. Returns the set
// and the key-release policy (pinned to the image's expected measurement)
// for revoke/reinstate faults.
func buildClusterPlane(spec ScenarioSpec, bus *eventbus.Bus, svc *attest.Service, kb *attest.KeyBroker, keys attest.ServiceKeys, handler Handler, rsCfg ReplicaSetConfig) (*ClusterSet, attest.Policy, error) {
	cspec := *spec.Cluster
	var seed [ed25519.SeedSize]byte
	seed[0] = 0x5C
	seed[1] = byte(spec.Seed)
	seed[2] = byte(spec.Seed >> 8)
	priv := ed25519.NewKeyFromSeed(seed[:])

	entry := make([]byte, scenarioImageKiB<<10)
	sim.NewRand(spec.Seed*7919 + 17).Read(entry)
	img, err := image.NewBuilder("scenario/app", "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: entry}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(8 << 20).
		Build(priv)
	if err != nil {
		return nil, attest.Policy{}, err
	}
	cas := sconert.NewCAS(svc)
	sc := container.NewSCONEClient(priv, cas)
	secured, secrets, err := sc.BuildSecure(img, nil)
	if err != nil {
		return nil, attest.Policy{}, err
	}
	if _, err := sc.Deploy(secured, secrets, nil, nil); err != nil {
		return nil, attest.Policy{}, err
	}
	reg := registry.New()
	if err := reg.Push(secured); err != nil {
		return nil, attest.Policy{}, err
	}
	meas, err := container.ExpectedMeasurement(secured)
	if err != nil {
		return nil, attest.Policy{}, err
	}
	policy := attest.Policy{AllowedMREnclave: []cryptbox.Digest{meas}}
	kb.Register(scenarioService, policy, keys)

	cl, err := cluster.New(svc, reg, cluster.Config{
		Nodes:        cspec.Nodes,
		NodeCapacity: cspec.NodeCapacity,
	})
	if err != nil {
		return nil, attest.Policy{}, err
	}
	cs, err := NewClusterReplicaSet(bus, kb, scenarioService, handler, rsCfg,
		ContainerSpec{CAS: cas, Image: "scenario/app", Tag: "1.0"}, cl)
	if err != nil {
		return nil, attest.Policy{}, err
	}
	return cs, policy, nil
}
