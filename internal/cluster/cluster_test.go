package cluster

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/image"
	"securecloud/internal/orchestrator"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
	"securecloud/internal/sim"
	"securecloud/internal/transfer"
)

const (
	testImage = "cluster/app"
	testTag   = "1.0"
)

// newTestCluster builds a cluster over a registry holding one deterministic
// secure image, returning the cluster, the CAS needed to run it, and the
// image's unique chunk set.
func newTestCluster(t *testing.T, nodes, capacity int) (*Cluster, *sconert.CAS, []cryptbox.Digest) {
	t.Helper()
	svc := attest.NewService()
	var seed [ed25519.SeedSize]byte
	seed[0] = 0xC1
	priv := ed25519.NewKeyFromSeed(seed[:])

	entry := make([]byte, 192<<10)
	sim.NewRand(7).Read(entry)
	img, err := image.NewBuilder(testImage, testTag).
		AddLayer(map[string][]byte{container.EntrypointPath: entry}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(8 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	cas := sconert.NewCAS(svc)
	sc := container.NewSCONEClient(priv, cas)
	secured, secrets, err := sc.BuildSecure(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}
	cl, err := New(svc, reg, Config{Nodes: nodes, NodeCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := cl.ImageChunks(testImage, testTag)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("test image should span several chunks, got %d", len(chunks))
	}
	return cl, cas, chunks
}

// boot launches one container on a node and records the boot, returning
// the pull stats.
func boot(t *testing.T, n *Node, cas *sconert.CAS, id string) container.PullStats {
	t.Helper()
	eng, err := n.Launch(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eng.Run(testImage, testTag, cas)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ps := eng.LastPullStats()
	n.RecordBoot(ps)
	return ps
}

// TestLinkChargesAndWarmBoot pins the link cost model: a cold boot charges
// LatencyCycles + ceil(bytes/KiB)·CyclesPerKiB per crossing chunk, and a
// second boot on the same node is warm — every chunk served from the node
// cache, nothing new over the link.
func TestLinkChargesAndWarmBoot(t *testing.T) {
	cl, cas, _ := newTestCluster(t, 1, 0)
	n := cl.Node(0)

	cold := boot(t, n, cas, "c0")
	if cold.ChunksFetch == 0 || cold.CacheHits != 0 {
		t.Fatalf("first boot should be fully cold: %+v", cold)
	}
	cycles, chunks, bytes := n.LinkTotals()
	if chunks != uint64(cold.ChunksFetch) {
		t.Fatalf("chunks over link %d != chunks fetched %d", chunks, cold.ChunksFetch)
	}
	minCycles := sim.Cycles(chunks)*DefaultLinkCost.LatencyCycles +
		transfer.LinkCost{CyclesPerKiB: DefaultLinkCost.CyclesPerKiB}.ChunkCycles(int(bytes))
	if cycles < minCycles {
		t.Fatalf("link cycles %d below analytic floor %d", cycles, minCycles)
	}

	warm := boot(t, n, cas, "c1")
	if warm.CacheHits == 0 || warm.ChunksFetch >= cold.ChunksFetch {
		t.Fatalf("second boot should be warm: %+v vs cold %+v", warm, cold)
	}
	bp := cl.Boots()
	if bp.WarmBoots != 1 || bp.ColdBoots != 1 || bp.WarmFetchMax >= bp.ColdFetchMin {
		t.Fatalf("boot profile wrong: %+v", bp)
	}
}

// TestLinkTotalsDeterministic pins the commutativity property at the unit
// level: two identically-configured clusters booting the same image report
// bit-identical link and pull totals.
func TestLinkTotalsDeterministic(t *testing.T) {
	var ref [3]uint64
	for trial := 0; trial < 2; trial++ {
		cl, cas, _ := newTestCluster(t, 2, 0)
		boot(t, cl.Node(0), cas, "a")
		boot(t, cl.Node(1), cas, "b")
		cy0, ch0, by0 := cl.Node(0).LinkTotals()
		cy1, ch1, by1 := cl.Node(1).LinkTotals()
		got := [3]uint64{uint64(cy0 + cy1), ch0 + ch1, by0 + by1}
		if trial == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("link totals drifted between identical runs: %v != %v", got, ref)
		}
	}
}

// TestPartitionRefusesThenHeals: a partitioned node's link fails closed
// with ErrNodeUnreachable before any chunk crosses; healing restores it.
func TestPartitionRefusesThenHeals(t *testing.T) {
	cl, cas, _ := newTestCluster(t, 2, 0)
	cl.PartitionNode(1)
	n := cl.Node(1)

	eng, err := n.Launch("p0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(testImage, testTag, cas); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("partitioned pull: got %v, want ErrNodeUnreachable", err)
	}
	if _, chunks, _ := n.LinkTotals(); chunks != 0 {
		t.Fatalf("%d chunks crossed a partitioned link", chunks)
	}

	cl.HealNode(1)
	if ps := boot(t, n, cas, "p1"); ps.ChunksFetch == 0 {
		t.Fatalf("healed boot fetched nothing: %+v", ps)
	}
}

// TestByzantineFailsClosed: tampered chunks from the registry fail digest
// verification, never enter the node cache, and the node can be isolated
// exactly once — after which placement routes around it.
func TestByzantineFailsClosed(t *testing.T) {
	cl, cas, chunks := newTestCluster(t, 2, 0)
	cl.SetByzantine(1, true)
	n := cl.Node(1)

	eng, err := n.Launch("z0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(testImage, testTag, cas); !errors.Is(err, container.ErrChunkVerify) {
		t.Fatalf("byzantine pull: got %v, want ErrChunkVerify", err)
	}
	n.RecordFailedPull(eng.LastPullStats())
	if got := n.Cache().Stats(); got.Blobs != 0 {
		t.Fatalf("tampered pull left %d blobs in the cache", got.Blobs)
	}
	if cl.Audit() != 0 {
		t.Fatalf("audit found tampered cached chunks")
	}

	if !cl.Isolate(n) || cl.Isolate(n) {
		t.Fatal("Isolate should report newly-isolated exactly once")
	}
	for i := 0; i < 3; i++ {
		pl, err := cl.Place(chunks)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Node().Index() == 1 {
			t.Fatal("placement chose the isolated node")
		}
	}
}

// TestPlacementPrefersWarmThenSpreads: with node 0's cache warmed, the
// placer puts the first replica there; with capacity 1 the next placement
// spreads to the lowest-index cold node; releasing frees the slot.
func TestPlacementPrefersWarmThenSpreads(t *testing.T) {
	cl, cas, chunks := newTestCluster(t, 3, 1)
	boot(t, cl.Node(0), cas, "fe")

	p0, err := cl.Place(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Node().Index() != 0 {
		t.Fatalf("first placement chose %s, want the warm node00", p0.Node().Name())
	}
	p1, err := cl.Place(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Node().Index() != 1 {
		t.Fatalf("second placement chose %s, want the cold node01", p1.Node().Name())
	}
	p2, err := cl.Place(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Node().Index() != 2 {
		t.Fatalf("third placement chose %s, want node02", p2.Node().Name())
	}
	if _, err := cl.Place(chunks); !errors.Is(err, orchestrator.ErrNoEligibleNode) {
		t.Fatalf("full cluster: got %v, want ErrNoEligibleNode", err)
	}
	p1.Release()
	p1.Release() // idempotent
	again, err := cl.Place(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if again.Node().Index() != 1 {
		t.Fatalf("post-release placement chose %s, want node01", again.Node().Name())
	}
}
