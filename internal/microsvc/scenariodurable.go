package microsvc

import (
	"fmt"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
)

// DurabilitySpec attaches a durable sealed store to a scenario: every
// served tick's requests are also applied to a kvstore.DurableStore (WAL
// group commit per tick), snapshots publish on a fixed cadence, and the
// "crash-state" fault kind recovers the store from snapshot + WAL tail and
// pins it bit-identical to a never-crashed twin.
type DurabilitySpec struct {
	// Shards is the durable store's shard count (topology).
	Shards int
	// SnapshotEvery publishes a snapshot every N ticks (0 = never).
	// Snapshots are incremental: shards untouched since their last packed
	// snapshot publish reuse records chaining to the parent manifest.
	SnapshotEvery int
	// GCEvery runs WAL-segment GC every N ticks (0 = never).
	GCEvery int
	// RetainEpochs is GC's retention margin (kvstore.DurableConfig
	// .GCRetainEpochs; 0 = kvstore default of 1).
	RetainEpochs int
	// ShardBytes sizes each shard enclave (0 = kvstore default).
	ShardBytes uint64
}

// durabilityHarness is the scenario engine's durable-state rig: the durable
// store under test, a never-crashed unaccounted twin receiving the same
// writes, and the registry + engine that survive the "crash" (they model
// off-node services). Its seal key comes through the full attested release
// path — an enclave signed as the scenario service quotes itself to the
// KeyBroker — so durable state is rooted in attestation exactly like the
// replicas' request keys.
type durabilityHarness struct {
	spec  DurabilitySpec
	cfg   kvstore.DurableConfig
	store *kvstore.DurableStore
	twin  *kvstore.ShardedStore
	// m is the scenario's metric table; the harness counts into it under
	// durabilityMetrics' names. Every counter is an integer far below
	// 2^53, so the float sums are exact.
	m map[string]float64
}

// durabilityMetrics are the counters the harness adds to a scenario's
// metric table, besides recovered_state_equal.
var durabilityMetrics = []string{
	"recoveries", "snapshots_published", "wal_records_replayed",
	"snapshot_pairs_restored", "recovery_chunks_fetched", "recovery_cache_hits",
	"snapshot_bootstrap_cycles", "log_replay_cycles", "snapshot_shards_packed",
	"snapshot_shards_reused", "snapshot_chunks_published", "snapshot_chunks_deduped",
	"snapshot_pack_cycles", "recovery_chain_links", "gc_segments_retired",
	"gc_bytes_retired",
}

// newDurabilityHarness boots the durable store and its twin for spec and
// zeroes the harness counters in the metric table m.
func newDurabilityHarness(spec ScenarioSpec, svc *attest.Service, kb *attest.KeyBroker, m map[string]float64) (*durabilityHarness, error) {
	d := spec.Durability
	enc, _, err := enclave.NewSignedWorker(enclave.Config{}, 1<<20, scenarioService, ReplicaSigner(scenarioService))
	if err != nil {
		return nil, err
	}
	defer enc.Destroy()
	quoter, err := svc.Provision(enc.Platform(), "durable-node")
	if err != nil {
		return nil, err
	}
	skeys, err := attest.FetchServiceKeys(enc, quoter, kb, scenarioService)
	if err != nil {
		return nil, fmt.Errorf("microsvc: durability key release: %w", err)
	}
	sealKey, err := skeys.Derive("durability")
	if err != nil {
		return nil, err
	}

	reg := registry.New()
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = spec.Workers

	cfg := kvstore.DurableConfig{
		Shards: d.Shards, Workers: spec.Workers, Seed: spec.Seed,
		ShardBytes: d.ShardBytes,
		Service:    "durable/" + scenarioService,
		SealKey:    sealKey,
		Registry:   reg, Engine: eng,
		GCRetainEpochs: d.RetainEpochs,
	}
	store, err := kvstore.NewDurableStore(cfg)
	if err != nil {
		return nil, err
	}
	twin, err := kvstore.NewShardedStore(sealKey, kvstore.ShardedStoreConfig{
		Shards: d.Shards, Workers: spec.Workers, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, k := range durabilityMetrics {
		m[k] = 0
	}
	m["recovered_state_equal"] = 1
	return &durabilityHarness{spec: *d, cfg: cfg, store: store, twin: twin, m: m}, nil
}

// tick applies tick t's pairs to both the durable store and the twin, then
// publishes an incremental snapshot and retires snapshot-covered WAL
// segments when their cadence is due. It returns a trace line for each.
func (h *durabilityHarness) tick(t int, pairs []kvstore.Pair) ([]string, error) {
	if len(pairs) > 0 {
		if err := h.store.PutBatch(pairs); err != nil {
			return nil, err
		}
		if err := h.twin.PutBatch(pairs); err != nil {
			return nil, err
		}
	}
	var lines []string
	if every := h.spec.SnapshotEvery; every > 0 && t%every == 0 {
		st, err := h.store.Snapshot()
		if err != nil {
			return nil, err
		}
		h.m["snapshots_published"]++
		h.m["snapshot_shards_packed"] += float64(st.ShardsPacked)
		h.m["snapshot_shards_reused"] += float64(st.ShardsReused)
		h.m["snapshot_chunks_published"] += float64(st.ChunksPublished)
		h.m["snapshot_chunks_deduped"] += float64(st.ChunksDeduped)
		h.m["snapshot_pack_cycles"] += float64(st.PackCycles)
		lines = append(lines, fmt.Sprintf("snapshot seq=%d packed=%d reused=%d chunks=%d",
			st.Seq, st.ShardsPacked, st.ShardsReused, st.ChunksPublished))
	}
	if every := h.spec.GCEvery; every > 0 && t%every == 0 {
		g := h.store.GC()
		h.m["gc_segments_retired"] += float64(g.SegmentsRetired)
		h.m["gc_bytes_retired"] += float64(g.BytesRetired)
		lines = append(lines, fmt.Sprintf("gc retired=%d bytes=%d", g.SegmentsRetired, g.BytesRetired))
	}
	return lines, nil
}

// crash kills the durable store with total state loss — only the WAL
// segments and the off-node registry survive — then recovers a fresh store
// (walking the snapshot delta chain, pulling only cache-missing chunks)
// and checks it bit-identical to the never-crashed twin. Returns a trace
// line.
func (h *durabilityHarness) crash() (string, error) {
	segs := h.store.WALSegments()
	recovered, rstats, err := kvstore.RecoverDurableStore(h.cfg, segs)
	if err != nil {
		return "", err
	}
	h.store = recovered
	h.m["recoveries"]++
	h.m["wal_records_replayed"] += float64(rstats.RecordsReplayed)
	h.m["snapshot_pairs_restored"] += float64(rstats.SnapshotPairs)
	h.m["recovery_chunks_fetched"] += float64(rstats.ChunksFetched)
	h.m["recovery_cache_hits"] += float64(rstats.CacheHits)
	h.m["snapshot_bootstrap_cycles"] += float64(rstats.SnapshotBootstrapCycles)
	h.m["log_replay_cycles"] += float64(rstats.LogReplayCycles)
	h.m["recovery_chain_links"] += float64(rstats.ChainLinks)
	got, err := recovered.StateDigest()
	if err != nil {
		return "", err
	}
	want, err := h.twin.StateDigest()
	if err != nil {
		return "", err
	}
	equal := got == want
	if !equal {
		h.m["recovered_state_equal"] = 0
	}
	return fmt.Sprintf("recover state pairs=%d replayed=%d fetched=%d cached=%d equal=%v",
		rstats.SnapshotPairs, rstats.RecordsReplayed, rstats.ChunksFetched, rstats.CacheHits, equal), nil
}
