package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/transfer"
)

// keysForShard probes the store's hash until it has n distinct keys that
// land on the given shard — the way tests confine mutations to one shard.
func keysForShard(t testing.TB, ds *DurableStore, shard, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k-%04d", i)
		if ds.shardOf(k) == shard {
			keys = append(keys, k)
		}
		if i > 1<<16 {
			t.Fatalf("no %d keys found for shard %d", n, shard)
		}
	}
	return keys
}

// mutateShard overwrites n of the given shard's keys with fresh values of
// a fixed length (fixed so chunk boundaries don't shift — the minimal
// delta), applying the same writes to the reference map.
func mutateShard(t testing.TB, ds *DurableStore, ref map[string][]byte, rng *rand.Rand, shard, n int) {
	t.Helper()
	keys := keysForShard(t, ds, shard, n)
	pairs := make([]Pair, n)
	for i, k := range keys {
		v := make([]byte, 32)
		rng.Read(v)
		pairs[i] = Pair{Key: k, Value: v}
	}
	if err := ds.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	applyToMap(ref, pairs)
}

// coldNode clones cfg onto a replacement node: same registry, fresh engine
// with an empty blob cache.
func coldNode(cfg DurableConfig) DurableConfig {
	cold := cfg
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), cfg.Engine.Registry, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = cfg.Workers
	cold.Engine = eng
	return cold
}

// loadFixture fills a fixture store and reference map with a deterministic
// base dataset.
func loadFixture(t testing.TB, ds *DurableStore, seed int64) map[string][]byte {
	t.Helper()
	ref := map[string][]byte{}
	for _, b := range genBatches(seed, 6, 14) {
		if err := ds.PutBatch(b); err != nil {
			t.Fatal(err)
		}
		applyToMap(ref, b)
	}
	return ref
}

// TestDurableDeltaSnapshotReuse pins the incremental-snapshot contract:
// after a mutation confined to one shard, the next snapshot packs exactly
// that shard, publishes strictly fewer chunks and charges strictly fewer
// pack cycles than the full snapshot did, and the other shards chain reuse
// records that cold recovery walks back to the packed parents.
func TestDurableDeltaSnapshotReuse(t *testing.T) {
	const shards = 4
	ds, cfg := newDurableFixture(t, shards, 2)
	ref := loadFixture(t, ds, 7)

	full, err := ds.Snapshot() // first snapshot: nothing to reuse yet
	if err != nil {
		t.Fatal(err)
	}
	if full.ShardsPacked != shards || full.ShardsReused != 0 {
		t.Fatalf("first snapshot: %+v", full)
	}
	if full.ChunksPublished == 0 || full.PackCycles == 0 {
		t.Fatalf("first snapshot published nothing: %+v", full)
	}

	mutateShard(t, ds, ref, rand.New(rand.NewSource(3)), 0, 2)
	delta, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if delta.ShardsPacked != 1 || delta.ShardsReused != shards-1 {
		t.Fatalf("delta snapshot: %+v", delta)
	}
	if delta.ChunksPublished >= full.ChunksPublished {
		t.Fatalf("delta published %d chunks, full published %d", delta.ChunksPublished, full.ChunksPublished)
	}
	if delta.PackCycles >= full.PackCycles {
		t.Fatalf("delta charged %d pack cycles, full charged %d", delta.PackCycles, full.PackCycles)
	}

	rec, rs, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("delta-chain recovery differs from reference")
	}
	// The packed head is 1 link; each reused shard chains head → parent.
	if wantLinks := 1 + (shards-1)*2; rs.ChainLinks != wantLinks {
		t.Fatalf("chain links %d, want %d", rs.ChainLinks, wantLinks)
	}
	// A clean recovered store snapshots again without re-packing anything
	// recovery didn't touch (no tail records → everything reuses).
	st, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 3 || st.ShardsPacked != 0 || st.ShardsReused != shards {
		t.Fatalf("post-recovery snapshot: %+v", st)
	}
}

// TestDurableDeltaWarmRecoveryFetches pins the warm-delta promise: after a
// small mutation and a delta snapshot, recovering on a node that already
// pulled the previous snapshot fetches only the changed chunks — strictly
// fewer than the cold full recovery, with everything else a cache hit.
func TestDurableDeltaWarmRecoveryFetches(t *testing.T) {
	ds, cfg := newDurableFixture(t, 4, 2)
	ref := loadFixture(t, ds, 19)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}

	node := coldNode(cfg)
	rec, rsCold, err := RecoverDurableStore(node, ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rsCold.ChunksFetched == 0 || rsCold.CacheHits != 0 {
		t.Fatalf("cold recovery: %+v", rsCold)
	}

	// Small mutation on the recovered store, delta snapshot, crash again.
	mutateShard(t, rec, ref, rand.New(rand.NewSource(5)), 1, 1)
	if _, err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rec2, rsWarm, err := RecoverDurableStore(node, rec.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rsWarm.ChunksFetched == 0 || rsWarm.ChunksFetched >= rsCold.ChunksFetched {
		t.Fatalf("warm delta recovery fetched %d, cold fetched %d", rsWarm.ChunksFetched, rsCold.ChunksFetched)
	}
	if rsWarm.CacheHits == 0 {
		t.Fatalf("warm delta recovery hit nothing: %+v", rsWarm)
	}
	got, err := rec2.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("warm delta recovery differs from reference")
	}
}

// TestDurableGCRetiresCoveredSegments: GC retires only sealed epochs a
// durable snapshot covers, honors the retention margin, refuses to collect
// with no snapshot published, and recovery stays bit-identical afterwards.
func TestDurableGCRetiresCoveredSegments(t *testing.T) {
	ds, cfg := newDurableFixture(t, 2, 2)
	cfg.GCRetainEpochs = -1 // no margin: everything covered is collectible
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadFixture(t, ds, 23)

	if g := ds.GC(); g.SegmentsRetired != 0 {
		t.Fatalf("GC before any snapshot retired %d segments", g.SegmentsRetired)
	}
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	g := ds.GC()
	if g.SegmentsRetired != 2 || g.BytesRetired == 0 {
		t.Fatalf("GC after snapshot: %+v", g)
	}
	// Tail records after the snapshot live at the durable epoch — GC must
	// never touch them, at any retention setting.
	rng := rand.New(rand.NewSource(9))
	mutateShard(t, ds, ref, rng, 0, 2)
	mutateShard(t, ds, ref, rng, 1, 2)
	if g := ds.GC(); g.SegmentsRetired != 0 {
		t.Fatalf("GC collected live-epoch segments: %+v", g)
	}
	rec, rs, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rs.RecordsReplayed == 0 {
		t.Fatal("post-GC recovery replayed nothing")
	}
	got, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("post-GC recovery differs from reference")
	}
}

// TestDurableGCRetentionMargin: with the default margin of 1, the newest
// sealed epoch survives GC even though a snapshot covers it.
func TestDurableGCRetentionMargin(t *testing.T) {
	ds, cfg := newDurableFixture(t, 2, 2)
	ref := loadFixture(t, ds, 29)
	rng := rand.New(rand.NewSource(31))
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutateShard(t, ds, ref, rng, 0, 2)
	mutateShard(t, ds, ref, rng, 1, 2)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Each shard now has sealed epochs {1, 2}; epoch 2 is the margin.
	g := ds.GC()
	if g.SegmentsRetired != 2 {
		t.Fatalf("GC with margin: %+v", g)
	}
	for i, segs := range ds.WALSegments() {
		if len(segs) != 2 || segs[0].Epoch != 2 || segs[1].Epoch != 3 {
			t.Fatalf("shard %d keeps %+v", i, segs)
		}
	}
	rec, _, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("post-margin-GC recovery differs from reference")
	}
}

// TestDurableCrashBetweenSnapshotAndGC is the GC edge the satellite names:
// the process dies after the snapshot published but before the covered
// segments were retired. Recovery must skip the stale epochs cleanly, keep
// them attached, and let the recovered store's own GC retire them.
func TestDurableCrashBetweenSnapshotAndGC(t *testing.T) {
	ds, cfg := newDurableFixture(t, 2, 2)
	cfg.GCRetainEpochs = -1
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadFixture(t, ds, 37)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutateShard(t, ds, ref, rand.New(rand.NewSource(41)), 0, 2)
	// Crash here: sealed epoch-1 segments still on the medium, un-GC'd.
	segs := ds.WALSegments()
	if len(segs[0]) != 2 {
		t.Fatalf("expected stale+live segments, got %+v", segs[0])
	}
	rec, rs, err := RecoverDurableStore(coldNode(cfg), segs)
	if err != nil {
		t.Fatal(err)
	}
	// Stale epoch-1 records were NOT replayed (the snapshot covers them).
	if rs.RecordsReplayed != 1 {
		t.Fatalf("replayed %d records, want just the tail", rs.RecordsReplayed)
	}
	got, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mapDigest(t, ref); got != want {
		t.Fatal("recovery with stale segments differs from reference")
	}
	// The stale segments survived recovery and the recovered store's GC
	// finishes the interrupted retirement.
	if g := rec.GC(); g.SegmentsRetired != 2 {
		t.Fatalf("post-recovery GC: %+v", g)
	}
	got2, err := rec.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got {
		t.Fatal("GC changed recovered state")
	}
}

// TestDurableGCConcurrentPutBatch races GC passes against a writer under
// -race: GC walks sealed segments under the WAL mutex while appends land
// in the live tail, so neither corrupts the other.
func TestDurableGCConcurrentPutBatch(t *testing.T) {
	ds, _ := newDurableFixture(t, 4, 2)
	loadFixture(t, ds, 43)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(47))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := make([]byte, 32)
			rng.Read(v)
			if err := ds.PutBatch([]Pair{{Key: fmt.Sprintf("k-%04d", i%64), Value: v}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ds.GC()
	}
	close(stop)
	wg.Wait()
	if _, _, err := RecoverDurableStore(coldNode(ds.cfg), ds.WALSegments()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDeltaChainRecovery is the property test: recovered state is
// bit-identical to the never-crashed reference across delta chains of
// length {1,2,5}, shard counts {1,2,4,8}, with and without GC between
// snapshots — and the recovered store keeps the chain going.
func TestDurableDeltaChainRecovery(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, chain := range []int{1, 2, 5} {
			for _, gc := range []bool{false, true} {
				t.Run(fmt.Sprintf("shards=%d/chain=%d/gc=%v", shards, chain, gc), func(t *testing.T) {
					ds, cfg := newDurableFixture(t, shards, 2)
					ref := loadFixture(t, ds, int64(53+shards+chain))
					if _, err := ds.Snapshot(); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(59 + chain)))
					for r := 0; r < chain; r++ {
						mutateShard(t, ds, ref, rng, r%shards, 2)
						if _, err := ds.Snapshot(); err != nil {
							t.Fatal(err)
						}
						if gc {
							ds.GC()
						}
					}
					// Post-snapshot tail the recovery must replay.
					mutateShard(t, ds, ref, rng, (chain+1)%shards, 1)

					rec, rs, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
					if err != nil {
						t.Fatal(err)
					}
					if rs.RecordsReplayed == 0 {
						t.Fatal("no tail records replayed")
					}
					got, err := rec.StateDigest()
					if err != nil {
						t.Fatal(err)
					}
					if want := mapDigest(t, ref); got != want {
						t.Fatal("recovered state differs from reference")
					}
					// The chain continues on the recovered store: another
					// delta, another crash, still bit-identical.
					mutateShard(t, rec, ref, rng, 0, 1)
					st, err := rec.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if st.Seq != uint64(chain+2) {
						t.Fatalf("continued chain at seq %d, want %d", st.Seq, chain+2)
					}
					rec2, _, err := RecoverDurableStore(coldNode(cfg), rec.WALSegments())
					if err != nil {
						t.Fatal(err)
					}
					got2, err := rec2.StateDigest()
					if err != nil {
						t.Fatal(err)
					}
					if want := mapDigest(t, ref); got2 != want {
						t.Fatal("continued-chain recovery differs from reference")
					}
				})
			}
		}
	}
}

// tamperStore wraps a real registry's snapshot surface, rewriting what
// recovery reads, recording every blob set submitted, and failing
// PutBlobSet / PublishSnapshot on demand — the adversarial half of the
// chain and memo tests.
type tamperStore struct {
	*registry.Registry
	// onRead rewrites (or suppresses, via ok=false) every sealed record
	// recovery fetches; nil passes records through.
	onRead      func(name string, seq uint64, sealed []byte) ([]byte, bool)
	calls       []blobSetCall
	failPut     bool
	failPublish bool
	// failName, when set, confines failPut and failPublish to that
	// snapshot name: one shard fails, the others publish.
	failName string
}

// fails reports whether an injected failure applies to name.
func (ts *tamperStore) fails(name string) bool {
	return ts.failName == "" || ts.failName == name
}

// blobSetCall is one PutBlobSet a tamperStore saw.
type blobSetCall struct {
	m      *transfer.Manifest
	chunks [][]byte
}

// refs counts the call's nil chunks: references to blobs the registry holds.
func (c blobSetCall) refs() int {
	n := 0
	for _, ch := range c.chunks {
		if ch == nil {
			n++
		}
	}
	return n
}

var errInjected = errors.New("injected registry failure")

func (ts *tamperStore) PutBlobSet(m *transfer.Manifest, chunks [][]byte) (int, error) {
	ts.calls = append(ts.calls, blobSetCall{m: m, chunks: append([][]byte(nil), chunks...)})
	if ts.failPut && ts.fails(m.Name) {
		return 0, errInjected
	}
	return ts.Registry.PutBlobSet(m, chunks)
}

func (ts *tamperStore) PublishSnapshot(name string, seq uint64, sealed []byte) error {
	if ts.failPublish && ts.fails(name) {
		return errInjected
	}
	return ts.Registry.PublishSnapshot(name, seq, sealed)
}

// leaves lists every chunk digest submitted so far.
func (ts *tamperStore) leaves() []cryptbox.Digest {
	var out []cryptbox.Digest
	for _, c := range ts.calls {
		out = append(out, c.m.Leaves...)
	}
	return out
}

func (ts *tamperStore) LatestSnapshot(name string) (uint64, []byte, bool) {
	seq, sealed, ok := ts.Registry.LatestSnapshot(name)
	if !ok || ts.onRead == nil {
		return seq, sealed, ok
	}
	sealed, ok = ts.onRead(name, seq, sealed)
	return seq, sealed, ok
}

func (ts *tamperStore) SnapshotAt(name string, seq uint64) ([]byte, bool) {
	sealed, ok := ts.Registry.SnapshotAt(name, seq)
	if !ok || ts.onRead == nil {
		return sealed, ok
	}
	return ts.onRead(name, seq, sealed)
}

// deltaChainFixture builds a two-shard store with a two-link chain (full
// snapshot, then a delta where shard 1 reuses) behind a tamperStore, and
// returns the recovery config plus the expected digest.
func deltaChainFixture(t testing.TB) (DurableConfig, *tamperStore, [][]WALSegment, cryptbox.Digest) {
	t.Helper()
	reg := registry.New()
	ts := &tamperStore{Registry: reg}
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = 2
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0xD1}, cryptbox.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DurableConfig{
		Shards: 2, Workers: 2, Seed: 99,
		Service: "test/durable", SealKey: sealKey,
		Registry: ts, Engine: eng,
	}
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadFixture(t, ds, 61)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutateShard(t, ds, ref, rand.New(rand.NewSource(67)), 0, 2)
	if st, err := ds.Snapshot(); err != nil || st.ShardsReused == 0 {
		t.Fatalf("fixture delta snapshot: %+v, %v", st, err)
	}
	return cfg, ts, ds.WALSegments(), mapDigest(t, ref)
}

// TestDurableChainSpliceRefusal drives the explicit adversarial cases:
// every rewritten chain must be refused, never restored from.
func TestDurableChainSpliceRefusal(t *testing.T) {
	recoverWith := func(t *testing.T, onRead func(string, uint64, []byte) ([]byte, bool)) error {
		t.Helper()
		cfg, ts, segs, want := deltaChainFixture(t)
		ts.onRead = onRead
		rec, _, err := RecoverDurableStore(coldNode(cfg), segs)
		if err != nil {
			return err
		}
		got, derr := rec.StateDigest()
		if derr != nil {
			t.Fatal(derr)
		}
		if got != want {
			t.Fatal("tampered chain recovered to wrong state without an error")
		}
		return nil
	}

	t.Run("passthrough", func(t *testing.T) {
		if err := recoverWith(t, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("spliced-parent-prefix", func(t *testing.T) {
		// Re-pointing a reuse head's cleartext parent at seq 0: the AAD
		// changes with it, so authentication must fail.
		err := recoverWith(t, func(name string, seq uint64, sealed []byte) ([]byte, bool) {
			if seq == 2 {
				out := append([]byte(nil), sealed...)
				binary.BigEndian.PutUint64(out, 0)
				return out, true
			}
			return sealed, true
		})
		if err == nil {
			t.Fatal("spliced parent pointer accepted")
		}
	})
	t.Run("missing-link", func(t *testing.T) {
		err := recoverWith(t, func(name string, seq uint64, sealed []byte) ([]byte, bool) {
			if seq == 1 {
				return nil, false // the parent record vanished
			}
			return sealed, true
		})
		if err == nil {
			t.Fatal("missing chain link accepted")
		}
	})
	t.Run("record-bitflip", func(t *testing.T) {
		err := recoverWith(t, func(name string, seq uint64, sealed []byte) ([]byte, bool) {
			out := append([]byte(nil), sealed...)
			out[len(out)-1] ^= 0x01
			return out, true
		})
		if err == nil {
			t.Fatal("bitflipped record accepted")
		}
	})
	t.Run("rollback-substitution", func(t *testing.T) {
		// Serving the seq-1 record in place of the seq-2 head replays old
		// state; the AAD binds seq, so it must fail.
		cfg, ts, segs, _ := deltaChainFixture(t)
		ts.onRead = func(name string, seq uint64, sealed []byte) ([]byte, bool) {
			if seq == 2 {
				if old, ok := ts.Registry.SnapshotAt(name, 1); ok {
					return old, true
				}
			}
			return sealed, true
		}
		if _, _, err := RecoverDurableStore(coldNode(cfg), segs); err == nil {
			t.Fatal("rollback substitution accepted")
		}
	})
	t.Run("tampered-manifest-chunk", func(t *testing.T) {
		// A reuse pointer resolving to a manifest whose chunks were
		// tampered in the registry: the verified pull must refuse them.
		cfg, ts, segs, _ := deltaChainFixture(t)
		tampered := 0
		for _, d := range ts.leaves() {
			if ts.Registry.TamperBlob(d, func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[0] ^= 0xFF
				return out
			}) {
				tampered++
			}
		}
		if tampered == 0 {
			t.Fatal("nothing to tamper")
		}
		if _, _, err := RecoverDurableStore(coldNode(cfg), segs); err == nil {
			t.Fatal("tampered snapshot chunks accepted")
		}
	})
}

// FuzzRecoverSnapshotChain fuzzes the delta-chain walk with the mutation
// families the splice tests pin (re-pointed parents, dropped links,
// bitflips, truncation, tampered chunks). The invariant mirrors the WAL
// fuzz target's valid/torn/corrupt discipline: every input either recovers
// the exact reference state or is refused with an error — recovery never
// panics and never silently lands on different state.
func FuzzRecoverSnapshotChain(f *testing.F) {
	for sel := uint8(0); sel < 6; sel++ {
		f.Add(sel, uint16(3), uint64(0))
		f.Add(sel, uint16(0), uint64(2))
	}
	f.Add(uint8(1), uint16(1), uint64(1)) // identity splice: parent rewritten to itself
	f.Fuzz(func(t *testing.T, sel uint8, pos uint16, val uint64) {
		cfg, ts, segs, want := deltaChainFixture(t)
		switch sel % 6 {
		case 0: // passthrough
		case 1: // rewrite the cleartext parent prefix of one record
			ts.onRead = func(name string, seq uint64, sealed []byte) ([]byte, bool) {
				if seq == uint64(pos%2)+1 {
					out := append([]byte(nil), sealed...)
					binary.BigEndian.PutUint64(out, val)
					return out, true
				}
				return sealed, true
			}
		case 2: // drop one record (a missing link, or a vanished head)
			ts.onRead = func(name string, seq uint64, sealed []byte) ([]byte, bool) {
				if seq == uint64(pos%2)+1 {
					return nil, false
				}
				return sealed, true
			}
		case 3: // bitflip anywhere in the record
			ts.onRead = func(name string, seq uint64, sealed []byte) ([]byte, bool) {
				out := append([]byte(nil), sealed...)
				out[int(pos)%len(out)] ^= byte(val) | 1
				return out, true
			}
		case 4: // truncate the record
			ts.onRead = func(name string, seq uint64, sealed []byte) ([]byte, bool) {
				return append([]byte(nil), sealed[:int(pos)%len(sealed)]...), true
			}
		case 5: // tamper one published snapshot chunk in the registry
			if leaves := ts.leaves(); len(leaves) > 0 {
				d := leaves[int(pos)%len(leaves)]
				ts.Registry.TamperBlob(d, func(b []byte) []byte {
					out := append([]byte(nil), b...)
					out[int(val%uint64(len(out)))] ^= 0xFF
					return out
				})
			}
		}
		rec, _, err := RecoverDurableStore(coldNode(cfg), segs)
		if err != nil {
			return // refused cleanly — the acceptable adversarial outcome
		}
		got, derr := rec.StateDigest()
		if derr != nil {
			t.Fatal(derr)
		}
		if got != want {
			t.Fatalf("sel=%d pos=%d: recovery accepted a tampered chain and diverged", sel%6, pos)
		}
	})
}
