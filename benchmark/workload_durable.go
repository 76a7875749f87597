package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
)

const (
	durableService   = "bench/durable"
	durableShards    = 8
	durableValueSize = 200 // fixed, so overwrites rewrite records in place
	durableBatch     = 16
)

func durableKey(i int) string { return fmt.Sprintf("key-%06d", i) }

// newNode builds a container engine with an empty node blob cache pulling
// from src: the node a durable store lives on, or recovers on.
func newNode(src container.PullSource) *container.Engine {
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), src, nil)
	eng.Cache = container.NewBlobCache()
	return eng
}

// durableBase is what both durability workloads start from: a registry, a
// durable store on a node of its own, pre-loaded and snapshotted once.
type durableBase struct {
	reg   *registry.Registry
	store *tracedSnapshotStore
	cfg   kvstore.DurableConfig
	ds    *kvstore.DurableStore
	rng   *rand.Rand
}

func (b *durableBase) build(e *env, keys int) error {
	b.rng = rand.New(rand.NewSource(e.seed))
	var sealKey cryptbox.Key
	b.rng.Read(sealKey[:])
	b.reg = registry.New()
	b.store = &tracedSnapshotStore{inner: b.reg, tr: e.tr}
	b.cfg = kvstore.DurableConfig{
		Shards: durableShards, Seed: e.seed, ShardBytes: 2 << 20,
		Service: durableService, SealKey: sealKey,
		Registry: b.store, Engine: newNode(b.reg),
	}
	var err error
	if b.ds, err = kvstore.NewDurableStore(b.cfg); err != nil {
		return err
	}
	const load = 500
	for lo := 0; lo < keys; lo += load {
		batch := make([]kvstore.Pair, 0, load)
		for i := lo; i < min(lo+load, keys); i++ {
			batch = append(batch, kvstore.Pair{Key: durableKey(i), Value: b.value()})
		}
		if err := b.ds.PutBatch(batch); err != nil {
			return err
		}
	}
	_, err = b.ds.Snapshot()
	return err
}

// storageCounters reports what the registry holds, against the logical
// size of a store of the given number of keys.
func (b *durableBase) storageCounters(keys int, v map[string]float64) {
	stored := registryCounters(b.reg, v)
	v["kvstore.stored_bytes_per_user_byte"] = float64(stored) / float64(keys*(len(durableKey(0))+durableValueSize))
}

func (b *durableBase) value() []byte {
	v := make([]byte, durableValueSize)
	b.rng.Read(v)
	return v
}

// batches draws n PutBatch inputs over the first hot keys.
func (b *durableBase) batches(n, hot int) [][]kvstore.Pair {
	out := make([][]kvstore.Pair, n)
	for i := range out {
		batch := make([]kvstore.Pair, durableBatch)
		for j := range batch {
			batch[j] = kvstore.Pair{Key: durableKey(b.rng.Intn(hot)), Value: b.value()}
		}
		out[i] = batch
	}
	return out
}

// ---- durable_write ----

// durableSnapshotEvery is how many PutBatch ops separate two Snapshot+GC
// rounds; their time is charged to the op that triggers them.
const durableSnapshotEvery = 512

type durableWrite struct {
	durableBase
	keys, hot int
	pool      [][]kvstore.Pair
	ops       int
	model     map[string][]byte // last value written to each hot key

	putUS                   []time.Duration // traced ops only
	snaps                   int             // Snapshot+GC rounds
	packed, reused          int
	chunks, deduped, retire int
	warm                    int
}

func newDurableWrite() workload { return &durableWrite{} }

func (w *durableWrite) shape() shape {
	return shape{opsPerTick: 1, nSim: 2 * durableSnapshotEvery, payloadBytes: durableValueSize, warmTicks: w.warm}
}

func (w *durableWrite) setup(e *env) error {
	w.keys, w.hot = e.scale(20000, 2000), e.scale(2000, 200)
	if err := w.build(e, w.keys); err != nil {
		return err
	}
	w.pool = w.batches(e.scale(1024, 128), w.hot)
	w.model = make(map[string][]byte, w.hot)
	w.warm = e.scale(64, 8)
	return nil
}

func (w *durableWrite) tick(e *env) error {
	batch := w.pool[w.ops%len(w.pool)]
	w.ops++
	traced := e.tr.enabled()
	t0 := time.Now()
	end := e.tr.span("kvstore.putbatch")
	err := w.ds.PutBatch(batch)
	end()
	if err != nil {
		return err
	}
	if traced {
		w.putUS = append(w.putUS, time.Since(t0))
	}
	if w.ops%durableSnapshotEvery == 0 {
		end := e.tr.span("kvstore.snapshot")
		st, err := w.ds.Snapshot()
		end()
		if err != nil {
			return err
		}
		end = e.tr.span("kvstore.gc")
		gc := w.ds.GC()
		end()
		w.snaps++
		w.packed, w.reused = w.packed+st.ShardsPacked, w.reused+st.ShardsReused
		w.chunks, w.deduped = w.chunks+st.ChunksPublished, w.deduped+st.ChunksDeduped
		w.retire += gc.SegmentsRetired
	}
	now := time.Now()
	for _, p := range batch {
		w.model[p.Key] = p.Value
	}
	e.ok(now.Sub(t0), now)
	return nil
}

func (w *durableWrite) sim() (cycles, faults uint64) {
	return uint64(w.ds.Cycles()), w.ds.Faults()
}

// verify reads every hot key back against the model of what was written,
// then crashes the store on paper: a cold node recovers from the registry
// and the WAL segments, and must land on the live store's digest. A
// mismatch means acknowledged writes were not durable, so every op fails.
func (w *durableWrite) verify(e *env) error {
	keys := make([]string, 0, len(w.model))
	for k := range w.model {
		keys = append(keys, k)
	}
	vals, err := w.ds.GetBatch(keys)
	if err != nil {
		return err
	}
	for i, k := range keys {
		if !bytes.Equal(vals[i], w.model[k]) {
			e.failDone(1)
		}
	}
	cfg := w.cfg
	cfg.Engine = newNode(w.reg)
	recovered, _, err := kvstore.RecoverDurableStore(cfg, w.ds.WALSegments())
	if err != nil {
		return err
	}
	got, err := recovered.StateDigest()
	if err != nil {
		return err
	}
	want, err := w.ds.StateDigest()
	if err != nil {
		return err
	}
	if got != want {
		e.failDone(e.attempted - e.failed)
	}
	return nil
}

func walBytes(ds *kvstore.DurableStore) int {
	n := 0
	for _, shard := range ds.WALSegments() {
		for _, seg := range shard {
			n += len(seg.Bytes)
		}
	}
	return n
}

func (w *durableWrite) layers(e *env, lc *layerCtx) error {
	v := lc.vals
	if p50, err := quantileOf(w.putUS, 0.5); err == nil {
		v["kvstore.putbatch_us_p50"] = usOf(p50)
	}
	lc.perCall("kvstore.snapshot_ms", "kvstore.snapshot", 1e3)
	lc.perCall("kvstore.gc_ms", "kvstore.gc", 1e3)
	if w.snaps > 0 {
		v["kvstore.gc_segments_retired"] = float64(w.retire) / float64(w.snaps)
		v["transfer.chunks_per_snapshot"] = float64(w.chunks) / float64(w.snaps)
	}
	if w.chunks > 0 {
		v["kvstore.snapshot_dedup_ratio"] = float64(w.deduped) / float64(w.chunks)
	}
	if n := w.packed + w.reused; n > 0 {
		v["kvstore.shards_reused_ratio"] = float64(w.reused) / float64(n)
	}
	if w.store.chunks > 0 {
		v["registry.putblobset_us_per_chunk"] = lc.agg["registry.putblobset"].TotalUS / float64(w.store.chunks)
	}
	w.storageCounters(w.keys, v)

	// Probes: log growth per user byte over a run of batches, WAL.Append
	// alone on the same batches, and the chunk pipeline on a shard's worth
	// of the same values.
	n := min(len(w.pool), 64)
	before, user := walBytes(w.ds), 0
	for _, batch := range w.pool[:n] {
		if err := w.ds.PutBatch(batch); err != nil {
			return err
		}
		for _, p := range batch {
			user += len(p.Key) + len(p.Value)
		}
	}
	v["kvstore.wal_bytes_per_user_byte"] = float64(walBytes(w.ds)-before) / float64(user)

	wal := kvstore.NewWAL(w.cfg.SealKey, "probe", 1)
	ops := make([][]kvstore.WALOp, n)
	for i, batch := range w.pool[:n] {
		for _, p := range batch {
			ops[i] = append(ops[i], kvstore.WALOp{Key: p.Key, Value: p.Value})
		}
	}
	t0 := time.Now()
	for _, rec := range ops {
		if err := wal.Append(rec); err != nil {
			return err
		}
	}
	v["kvstore.wal_append_us_per_batch"] = usOf(time.Since(t0)) / float64(n)
	return probeTransfer(shardBlob(w.pool, w.keys/durableShards), 4096, v)
}

// shardBlob concatenates pool records up to the size of one shard's table.
func shardBlob(pool [][]kvstore.Pair, records int) []byte {
	var blob bytes.Buffer
	for n := 0; n < records; {
		for _, batch := range pool {
			for _, p := range batch {
				blob.WriteString(p.Key)
				blob.Write(p.Value)
				n++
			}
		}
	}
	return blob.Bytes()
}

func (w *durableWrite) close() {}

// ---- durable_recover ----

type durableRecover struct {
	durableBase
	keys     int
	segments [][]kvstore.WALSegment
	want     cryptbox.Digest
	src      *tracedPullSource

	cycles, faults uint64
	last           kvstore.RecoveryStats
	lastPull       container.PullStats
}

func newDurableRecover() workload { return &durableRecover{} }

func (w *durableRecover) shape() shape {
	return shape{opsPerTick: 1, nSim: 16, payloadBytes: durableValueSize, warmTicks: 2}
}

// setup freezes the artefacts of a crash: a base snapshot, two delta
// links, and a WAL tail of 50 batches that no snapshot covers. The store
// that wrote them never crashes and is the twin recoveries are held to.
func (w *durableRecover) setup(e *env) error {
	w.keys = e.scale(5000, 500)
	if err := w.build(e, w.keys); err != nil {
		return err
	}
	hot := w.keys / 10
	for link := 0; link < 2; link++ {
		for _, batch := range w.batches(8, hot) {
			if err := w.ds.PutBatch(batch); err != nil {
				return err
			}
		}
		if _, err := w.ds.Snapshot(); err != nil {
			return err
		}
	}
	for _, batch := range w.batches(50, hot) {
		if err := w.ds.PutBatch(batch); err != nil {
			return err
		}
	}
	w.segments = w.ds.WALSegments()
	var err error
	if w.want, err = w.ds.StateDigest(); err != nil {
		return err
	}
	w.src = &tracedPullSource{inner: w.reg, tr: e.tr}
	return nil
}

// recoverOn crashes onto the given node and returns the recovered store.
func (w *durableRecover) recoverOn(e *env, eng *container.Engine) (*kvstore.DurableStore, error) {
	cfg := w.cfg
	cfg.Engine = eng
	end := e.tr.span("kvstore.recover")
	ds, st, err := kvstore.RecoverDurableStore(cfg, w.segments)
	end()
	if err != nil {
		return nil, err
	}
	w.last, w.lastPull = st, eng.LastPullStats()
	w.cycles += uint64(st.SnapshotBootstrapCycles + st.LogReplayCycles)
	w.faults += ds.Faults()
	return ds, nil
}

func (w *durableRecover) tick(e *env) error {
	t0 := time.Now()
	ds, err := w.recoverOn(e, newNode(w.src))
	now := time.Now()
	if err != nil {
		return err
	}
	got, err := ds.StateDigest()
	if err != nil {
		return err
	}
	if got != w.want {
		e.fail(1)
		return nil
	}
	e.ok(now.Sub(t0), now)
	return nil
}

func (w *durableRecover) sim() (cycles, faults uint64) { return w.cycles, w.faults }

// verify has nothing left to do: every recovery is digest-checked in the
// loop.
func (w *durableRecover) verify(*env) error { return nil }

func (w *durableRecover) layers(e *env, lc *layerCtx) error {
	v := lc.vals
	v["kvstore.recover_chain_links"] = float64(w.last.ChainLinks)
	v["kvstore.replay_records"] = float64(w.last.RecordsReplayed)
	v["kvstore.bootstrap_sim_cycles"] = float64(w.last.SnapshotBootstrapCycles)
	v["kvstore.replay_sim_cycles"] = float64(w.last.LogReplayCycles)
	v["container.chunks_fetched_per_recover"] = float64(w.last.ChunksFetched)
	v["container.pull_critical_cycles"] = float64(w.lastPull.CriticalCycles)
	lc.perCall("registry.blob_fetch_us_per_chunk", "registry.blob", 1)
	w.storageCounters(w.keys, v)

	// One recovery onto a node that has recovered before: its blob cache
	// already holds every chunk.
	node := newNode(w.src)
	if _, err := w.recoverOn(e, node); err != nil {
		return err
	}
	if _, err := w.recoverOn(e, node); err != nil {
		return err
	}
	if n := w.last.CacheHits + w.last.ChunksFetched; n > 0 {
		v["container.cache_hit_ratio"] = float64(w.last.CacheHits) / float64(n)
	}
	return probeTransfer(shardBlob(w.batches(64, w.keys), w.keys/durableShards), 4096, v)
}

func (w *durableRecover) close() {}
