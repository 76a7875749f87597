package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
)

// Workload shape of the durability suite.
const (
	durSeed    = 42
	durShards  = 8
	durBatches = 6 // base-load batches, 14 pairs each
)

// genBatches mirrors the kvstore test workload: a deterministic batch
// stream with overwrites across a small key space.
func genBatches(seed int64, n, perBatch int) [][]kvstore.Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]kvstore.Pair, n)
	for i := range out {
		batch := make([]kvstore.Pair, perBatch)
		for j := range batch {
			v := make([]byte, 24+rng.Intn(40))
			rng.Read(v)
			batch[j] = kvstore.Pair{Key: fmt.Sprintf("key-%03d", rng.Intn(48)), Value: v}
		}
		out[i] = batch
	}
	return out
}

// newNode builds an engine (with an empty node blob cache) against reg.
func newNode(reg *registry.Registry, workers int) *container.Engine {
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = workers
	return eng
}

// durabilityCycle runs one full publish/crash/recover cycle at the given
// worker count and returns its deterministic figures.
func durabilityCycle(workers int) (map[string]float64, error) {
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0x5A}, cryptbox.KeySize))
	if err != nil {
		return nil, err
	}
	base := genBatches(durSeed, durBatches, 14)
	mutation := []kvstore.Pair{{Key: "key-007", Value: bytes.Repeat([]byte{0xEE}, 32)}}
	tail := []kvstore.Pair{{Key: "key-011", Value: bytes.Repeat([]byte{0xC3}, 32)}}
	load := func(ds *kvstore.DurableStore, batches ...[]kvstore.Pair) error {
		for _, b := range batches {
			if err := ds.PutBatch(b); err != nil {
				return err
			}
		}
		return nil
	}

	// ---- Node A: the primary store, base load, first (full) snapshot ----
	regA := registry.New()
	cfgA := kvstore.DurableConfig{
		Shards: durShards, Workers: workers, Seed: durSeed,
		Service: "bench/durable", SealKey: sealKey,
		Registry: regA, Engine: newNode(regA, workers),
	}
	dsA, err := kvstore.NewDurableStore(cfgA)
	if err != nil {
		return nil, err
	}
	if err := load(dsA, base...); err != nil {
		return nil, err
	}
	baseSnap, err := dsA.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("base snapshot: %w", err)
	}

	// ---- Node B: cold recovery (empty cache), then the delta cycle ----
	cfgB := cfgA
	cfgB.Engine = newNode(regA, workers)
	dsB, cold, err := kvstore.RecoverDurableStore(cfgB, dsA.WALSegments())
	if err != nil {
		return nil, fmt.Errorf("cold recovery: %w", err)
	}
	if err := load(dsB, mutation); err != nil {
		return nil, err
	}
	deltaSnap, err := dsB.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("delta snapshot: %w", err)
	}
	gc := dsB.GC()
	if err := load(dsB, tail); err != nil {
		return nil, err
	}

	// ---- Twin C: identical state against its own registry, so the full
	// snapshot baseline is measured without cross-dedup against A's chunks.
	// It also receives the tail batch, becoming the never-crashed reference.
	regC := registry.New()
	cfgC := cfgA
	cfgC.Registry = regC
	cfgC.Engine = newNode(regC, workers)
	dsC, err := kvstore.NewDurableStore(cfgC)
	if err != nil {
		return nil, err
	}
	if err := load(dsC, base...); err != nil {
		return nil, err
	}
	if err := load(dsC, mutation); err != nil {
		return nil, err
	}
	fullSnap, err := dsC.SnapshotFull()
	if err != nil {
		return nil, fmt.Errorf("full snapshot: %w", err)
	}
	if err := load(dsC, tail); err != nil {
		return nil, err
	}

	// ---- Crash B; warm recovery on the same node (warm blob cache) ----
	dsR, warm, err := kvstore.RecoverDurableStore(cfgB, dsB.WALSegments())
	if err != nil {
		return nil, fmt.Errorf("warm recovery: %w", err)
	}
	got, err := dsR.StateDigest()
	if err != nil {
		return nil, err
	}
	want, err := dsC.StateDigest()
	if err != nil {
		return nil, err
	}

	return map[string]float64{
		"base_snapshot_chunks":  float64(baseSnap.ChunksPublished),
		"base_snapshot_cycles":  float64(baseSnap.PackCycles),
		"cold_chunks_fetched":   float64(cold.ChunksFetched),
		"cold_cache_hits":       float64(cold.CacheHits),
		"delta_shards_packed":   float64(deltaSnap.ShardsPacked),
		"delta_shards_reused":   float64(deltaSnap.ShardsReused),
		"delta_snapshot_chunks": float64(deltaSnap.ChunksPublished),
		"delta_chunks_deduped":  float64(deltaSnap.ChunksDeduped),
		"delta_snapshot_cycles": float64(deltaSnap.PackCycles),
		"full_snapshot_chunks":  float64(fullSnap.ChunksPublished),
		"full_snapshot_cycles":  float64(fullSnap.PackCycles),
		"gc_segments_retired":   float64(gc.SegmentsRetired),
		"gc_bytes_retired":      float64(gc.BytesRetired),
		"delta_chunks_fetched":  float64(warm.ChunksFetched),
		"delta_cache_hits":      float64(warm.CacheHits),
		"replay_records":        float64(warm.RecordsReplayed),
		"chain_links":           float64(warm.ChainLinks),
		"recovered_state_equal": b2f(got == want),
	}, nil
}

// durabilitySuite measures what the delta durability pipeline saves over
// the full-snapshot baseline, in both directions of the wire:
//
//   - publish: after a small mutation, an incremental snapshot re-packs
//     only the dirty shard and must publish strictly fewer chunks — and
//     charge strictly fewer sim-cycles — than a full snapshot of the
//     identical state (measured on a twin store against its own registry,
//     so convergent dedup cannot flatter either side).
//   - recover: a node that already pulled the previous snapshot recovers
//     the delta chain by fetching only the cache-missing chunks — strictly
//     fewer than its own cold recovery fetched — then replays the
//     post-snapshot WAL tail, and must land bit-identical to a
//     never-crashed twin.
//
// The whole cycle runs once per worker count; every figure must be
// bit-identical across the sweep.
func durabilitySuite() (result, error) {
	det, problems, err := sweepWorkers("durability cycle", durabilityCycle, firstDiff)
	r := result{Deterministic: det, Problems: problems}
	if err != nil {
		return r, err
	}
	if det["delta_snapshot_chunks"] >= det["full_snapshot_chunks"] {
		r.Problems = append(r.Problems, fmt.Sprintf("delta snapshot published %v chunks, full published %v (incremental publish not saving chunks)",
			det["delta_snapshot_chunks"], det["full_snapshot_chunks"]))
	}
	if det["delta_snapshot_cycles"] >= det["full_snapshot_cycles"] {
		r.Problems = append(r.Problems, fmt.Sprintf("delta snapshot charged %v cycles, full charged %v (incremental publish not saving work)",
			det["delta_snapshot_cycles"], det["full_snapshot_cycles"]))
	}
	if det["delta_chunks_fetched"] == 0 || det["delta_chunks_fetched"] >= det["cold_chunks_fetched"] {
		r.Problems = append(r.Problems, fmt.Sprintf("warm delta recovery fetched %v chunks, cold fetched %v (delta chain not saving traffic)",
			det["delta_chunks_fetched"], det["cold_chunks_fetched"]))
	}
	if det["recovered_state_equal"] != 1 {
		r.Problems = append(r.Problems, "recovered state diverged from the never-crashed twin")
	}
	return r, nil
}
