package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"time"

	"securecloud/internal/container"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/sim"
)

// compressibleData mimics real layer content: low-entropy, so the
// transfer codec's compression stage does real work.
func compressibleData(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(16))
	}
	return out
}

// pullSuite drives the content-addressed sealed data plane — the
// chunk-granular registry plus the container engine's parallel verified
// pull. Three images sharing a 512 KiB base layer (192 KiB app layer
// each) are pushed through the deduplicating registry, then pulled three
// ways on a node with a shared blob cache, once per pull-worker count:
//
//  1. cold: the first image on an empty node — every unique chunk crosses.
//  2. shared: a sibling image — only its unique app layer crosses, the
//     base comes from the cache (cross-image dedup at the node).
//  3. warm: the first image again, as a second replica boot — zero chunks
//     may cross.
func pullSuite() (result, error) {
	r := result{Wallclock: make(map[string]float64)}

	reg := registry.New()
	rng := sim.NewRand(42)
	base := compressibleData(rng, 512<<10)
	pushStart := time.Now()
	for i := 0; i < 3; i++ {
		priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{byte(i + 1)}, ed25519.SeedSize))
		img, err := image.NewBuilder("bench/app", fmt.Sprintf("v%d", i)).
			AddLayer(map[string][]byte{"/lib/base": base}).
			AddLayer(map[string][]byte{container.EntrypointPath: compressibleData(rng, 192<<10)}).
			SetEntrypoint(container.EntrypointPath).
			SetEnclaveSize(1 << 20).
			Build(priv)
		if err != nil {
			return r, err
		}
		if err := reg.Push(img); err != nil {
			return r, err
		}
	}
	r.Wallclock["build_push_wall_ms"] = float64(time.Since(pushStart).Microseconds()) / 1e3
	regStats := reg.Stats()

	pulls, problems, err := sweepWorkers("pull sequence", func(workers int) (map[string]float64, error) {
		eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
		eng.Cache = container.NewBlobCache()
		eng.PullWorkers = workers
		m := make(map[string]float64)
		for _, p := range []struct{ name, tag string }{{"cold", "v0"}, {"shared", "v1"}, {"warm", "v0"}} {
			start := time.Now()
			img, ps, err := eng.PullImage("bench/app", p.tag)
			if err != nil {
				return nil, fmt.Errorf("%s pull: %w", p.name, err)
			}
			if workers == workerSweep[0] {
				r.Wallclock[p.name+"_wall_ms"] = float64(time.Since(start).Microseconds()) / 1e3
			}
			if err := img.Verify(); err != nil {
				return nil, fmt.Errorf("%s pull verification: %w", p.name, err)
			}
			m[p.name+"_chunks_fetched"] = float64(ps.ChunksFetch)
			m[p.name+"_unique_chunks"] = float64(ps.UniqueChunks)
			m[p.name+"_bytes_fetched"] = float64(ps.BytesFetched)
			m[p.name+"_cache_hits"] = float64(ps.CacheHits)
			m[p.name+"_sim_cycles_serial"] = float64(ps.SerialCycles)
			m[p.name+"_sim_cycles_critical"] = float64(ps.CriticalCycles)
			m[p.name+"_faults"] = float64(ps.Faults)
		}
		return m, nil
	}, firstDiff)
	if err != nil {
		return r, err
	}
	r.Problems = problems
	if pulls["warm_chunks_fetched"] != 0 || pulls["warm_bytes_fetched"] != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"warm pull fetched %v chunks (%v bytes), want 0: the node blob cache is broken",
			pulls["warm_chunks_fetched"], pulls["warm_bytes_fetched"]))
	}

	r.Deterministic = map[string]float64{
		"registry_blobs":      float64(regStats.Blobs),
		"registry_blob_bytes": float64(regStats.BlobBytes),
		"registry_dedup_hits": float64(regStats.DedupHits),
	}
	// The worker sweep compares every per-pull figure; these are the gated ones.
	for _, k := range []string{
		"cold_chunks_fetched", "cold_unique_chunks", "cold_bytes_fetched",
		"cold_sim_cycles_serial", "cold_sim_cycles_critical", "cold_faults",
		"shared_chunks_fetched", "shared_cache_hits", "shared_sim_cycles_serial",
		"warm_chunks_fetched", "warm_cache_hits", "warm_sim_cycles_serial",
	} {
		r.Deterministic[k] = pulls[k]
	}
	return r, nil
}
