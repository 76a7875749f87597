package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/registry"
	"securecloud/internal/shard"
	"securecloud/internal/shield"
	"securecloud/internal/sim"
)

// newDurableFixture builds a durable store backed by a fresh registry and
// engine (with a node blob cache), plus the config to recover it with.
func newDurableFixture(t testing.TB, shards, workers int) (*DurableStore, DurableConfig) {
	t.Helper()
	reg := registry.New()
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = workers
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0xD1}, cryptbox.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DurableConfig{
		Shards: shards, Workers: workers, Seed: 99,
		Service: "test/durable", SealKey: sealKey,
		Registry: reg, Engine: eng,
	}
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg
}

// genBatches produces a deterministic batch stream with overwrites across a
// small key space, so snapshots and replays exercise both inserts and
// updates.
func genBatches(seed int64, n, perBatch int) [][]Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Pair, n)
	for i := range out {
		batch := make([]Pair, perBatch)
		for j := range batch {
			v := make([]byte, 24+rng.Intn(40))
			rng.Read(v)
			batch[j] = Pair{Key: fmt.Sprintf("key-%03d", rng.Intn(48)), Value: v}
		}
		out[i] = batch
	}
	return out
}

// applyToMap replays one batch into a plain map — the reference semantics
// recovery must reproduce.
func applyToMap(m map[string][]byte, batch []Pair) {
	for _, p := range batch {
		m[p.Key] = append([]byte(nil), p.Value...)
	}
}

// cloneSegments deep-copies a crash image so a test can tear one shard's
// tail without disturbing the shared original.
func cloneSegments(segs [][]WALSegment) [][]WALSegment {
	out := make([][]WALSegment, len(segs))
	for i, ss := range segs {
		out[i] = append([]WALSegment(nil), ss...)
	}
	return out
}

// mapDigest renders a reference map the way StateDigest renders a store.
func mapDigest(t testing.TB, m map[string][]byte) cryptbox.Digest {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]WALOp, len(keys))
	for i, k := range keys {
		ops[i] = WALOp{Key: k, Value: m[k]}
	}
	payload, err := encodeWALOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	return cryptbox.Sum(payload)
}

// TestDurableSnapshotRecovery is the happy path: puts, snapshot, more puts,
// full crash, recover from snapshot + WAL tail, state bit-identical to a
// never-crashed reference; and a second recovery rides the warm blob cache.
func TestDurableSnapshotRecovery(t *testing.T) {
	ds, cfg := newDurableFixture(t, 4, 2)
	ref := map[string][]byte{}
	batches := genBatches(7, 6, 12)
	for i, b := range batches {
		if err := ds.PutBatch(b); err != nil {
			t.Fatal(err)
		}
		applyToMap(ref, b)
		if i == 2 {
			if _, err := ds.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := ds.Delete("key-000"); err != nil {
		t.Fatal(err)
	}
	delete(ref, "key-000")

	rec, rs, err := RecoverDurableStore(cfg, ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("recovered state differs from reference")
	}
	if rs.SnapshotBootstrapCycles == 0 || rs.LogReplayCycles == 0 || rs.RecordsReplayed == 0 {
		t.Fatalf("recovery stats empty: %+v", rs)
	}
	if rs.ChunksFetched == 0 || rs.CacheHits != 0 {
		t.Fatalf("cold first recovery: %+v", rs)
	}

	// A second recovery from the same survivors rides the now-warm node
	// cache — nothing fetched — and lands on the same state.
	rec2, rs2, err := RecoverDurableStore(cfg, ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	got2, err := rec2.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got {
		t.Fatal("repeat recovery landed on different state")
	}
	if rs2.ChunksFetched != 0 || rs2.CacheHits != rs.ChunksFetched {
		t.Fatalf("warm second recovery: %+v", rs2)
	}

	// The recovered store keeps working: appends and snapshots continue the
	// epoch/sequence chain.
	if err := rec.PutBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	if st, err := rec.Snapshot(); err != nil || st.Seq != 2 {
		t.Fatalf("post-recovery snapshot: %+v, %v", st, err)
	}
}

// TestDurableColdRecoveryFetches pins the verified-pull integration: a
// recovering node with a cold cache fetches every snapshot chunk, and a
// second cold-ish recovery on the same node hits the warm cache instead.
func TestDurableColdRecoveryFetches(t *testing.T) {
	ds, cfg := newDurableFixture(t, 2, 2)
	for _, b := range genBatches(11, 4, 10) {
		if err := ds.PutBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The replacement node shares the registry but not the blob cache.
	cold := cfg
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), cfg.Engine.Registry, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = cfg.Workers
	cold.Engine = eng

	_, rs1, err := RecoverDurableStore(cold, ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rs1.ChunksFetched == 0 || rs1.CacheHits != 0 {
		t.Fatalf("cold recovery: %+v", rs1)
	}
	_, rs2, err := RecoverDurableStore(cold, ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rs2.ChunksFetched != 0 || rs2.CacheHits != rs1.ChunksFetched {
		t.Fatalf("warm recovery: %+v", rs2)
	}
}

// TestDurableCrashEveryBoundary is the crash-recovery property test: shard
// 0's log dies at every record boundary and mid-record, with and without a
// snapshot underneath, across shard counts {1,2,4,8}; recovery must equal
// the reference state in which exactly the surviving records applied.
func TestDurableCrashEveryBoundary(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, snapshotAfter := range []int{0, 2} { // batch index; 0 = never
			t.Run(fmt.Sprintf("shards=%d/snapAfter=%d", shards, snapshotAfter), func(t *testing.T) {
				ds, cfg := newDurableFixture(t, shards, 2)
				batches := genBatches(int64(13+shards), 5, 12)

				ref := map[string][]byte{} // full replay, all shards
				var tailBatches [][]Pair   // shard-0 records in the current epoch
				for i, b := range batches {
					if err := ds.PutBatch(b); err != nil {
						t.Fatal(err)
					}
					applyToMap(ref, b)
					var s0 []Pair
					for _, p := range b {
						if shard.Of(p.Key, ds.Shards()) == 0 {
							s0 = append(s0, p)
						}
					}
					if len(s0) > 0 {
						tailBatches = append(tailBatches, s0)
					}
					if snapshotAfter > 0 && i == snapshotAfter-1 {
						if _, err := ds.Snapshot(); err != nil {
							t.Fatal(err)
						}
						tailBatches = nil // compacted into the snapshot
					}
				}
				segs := ds.WALSegments()
				tail := segs[0][len(segs[0])-1]
				bounds := recordBoundaries(t, tail.Bytes)
				if len(bounds)-1 != len(tailBatches) {
					t.Fatalf("%d shard-0 records, %d tail batches", len(bounds)-1, len(tailBatches))
				}

				// refAt(k): reference state with only the first k shard-0
				// tail records surviving; other shards always survive fully.
				refAt := func(k int) map[string][]byte {
					m := map[string][]byte{}
					// State as of the snapshot (or empty), shard 0 only.
					snapped := map[string][]byte{}
					for i := 0; i < snapshotAfter; i++ {
						applyToMap(snapped, batches[i])
					}
					for key, v := range snapped {
						if shard.Of(key, ds.Shards()) == 0 {
							m[key] = v
						}
					}
					for i := 0; i < k; i++ {
						applyToMap(m, tailBatches[i])
					}
					// Every other shard recovers everything.
					for key, v := range ref {
						if shard.Of(key, ds.Shards()) != 0 {
							m[key] = v
						}
					}
					return m
				}

				crashAt := func(name string, pos, survivors int) {
					t.Run(name, func(t *testing.T) {
						torn := cloneSegments(segs)
						last := len(torn[0]) - 1
						torn[0][last].Bytes = tail.Bytes[:pos]
						rec, rs, err := RecoverDurableStore(cfg, torn)
						if err != nil {
							t.Fatal(err)
						}
						got, err := rec.StateDigest()
						if err != nil {
							t.Fatal(err)
						}
						if want := mapDigest(t, refAt(survivors)); got != want {
							t.Fatalf("recovered state wrong with %d surviving records", survivors)
						}
						wantReplayed := survivors + (len(bounds)-1)*(len(segs)-1)
						if rs.RecordsReplayed != wantReplayed && shards > 1 {
							// Other shards' record counts can differ when a
							// batch left a shard empty; just require no
							// records were dropped from untouched shards.
							if rs.RecordsReplayed < survivors {
								t.Fatalf("replayed %d < surviving %d", rs.RecordsReplayed, survivors)
							}
						}
					})
				}

				for k := 0; k < len(bounds); k++ {
					crashAt(fmt.Sprintf("boundary-%d", k), bounds[k], k)
					if k < len(bounds)-1 {
						mid := bounds[k] + (bounds[k+1]-bounds[k])/2
						crashAt(fmt.Sprintf("midrecord-%d", k), mid, k)
					}
				}
			})
		}
	}
}

// TestDurableRecoveryWorkerInvariance pins RecoveryStats as topology: the
// same crash recovered at worker counts {1,2,4,8} yields bit-identical
// cycles, counts and state.
func TestDurableRecoveryWorkerInvariance(t *testing.T) {
	type outcome struct {
		rs     RecoveryStats
		digest cryptbox.Digest
	}
	var ref *outcome
	for _, workers := range []int{1, 2, 4, 8} {
		ds, cfg := newDurableFixture(t, 4, workers)
		batches := genBatches(29, 5, 12)
		for i, b := range batches {
			if err := ds.PutBatch(b); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if _, err := ds.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Recover on a cold replacement node so chunk fetches are exercised
		// identically at every worker count.
		cold := cfg
		eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), cfg.Engine.Registry, nil)
		eng.Cache = container.NewBlobCache()
		eng.PullWorkers = workers
		cold.Engine = eng
		rec, rs, err := RecoverDurableStore(cold, ds.WALSegments())
		if err != nil {
			t.Fatal(err)
		}
		d, err := rec.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		var cycles sim.Cycles = rs.SnapshotBootstrapCycles + rs.LogReplayCycles
		if cycles == 0 {
			t.Fatal("no recovery cycles charged")
		}
		if ref == nil {
			ref = &outcome{rs: rs, digest: d}
			continue
		}
		if rs != ref.rs || d != ref.digest {
			t.Fatalf("workers=%d drifted: %+v vs %+v", workers, rs, ref.rs)
		}
	}
}
