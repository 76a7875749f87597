package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/transfer"
)

// recoverSequential is the reference model of RecoverDurableStore: the
// shard-by-shard loop it replaced. Each shard resolves its chain, pulls
// its head as a one-set PullBlobSets, decodes and loads its snapshot and
// replays its WAL before the next shard starts, and the first error ends
// the recovery. It models the orchestration, not the rebuild of one shard:
// it bootstraps through the same loader (loadShard) as the real thing.
func recoverSequential(cfg DurableConfig, segments [][]WALSegment) (*DurableStore, RecoveryStats, error) {
	ds, err := NewDurableStore(cfg)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	var rs RecoveryStats
	for i := 0; i < ds.Shards(); i++ {
		name := ds.cfg.snapName(i)
		replayEpoch := uint64(1)
		head, man, links, err := ds.resolveSnapshotChain(i)
		if err != nil {
			return nil, rs, err
		}
		rs.ChainLinks += links
		if head != nil {
			payloads, pulls, err := cfg.Engine.PullBlobSets([]*transfer.Manifest{man}, []string{name})
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: snapshot %s: %w", name, err)
			}
			ps := pulls[0]
			ops, err := decodeWALOps(payloads[0])
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: snapshot %s: %w", name, err)
			}
			loaded, err := ds.loadShard(i, ops)
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: snapshot %s: %w", name, err)
			}
			rs.SnapshotBootstrapCycles += ps.SerialCycles + loaded
			rs.SnapshotPairs += len(ops)
			rs.ChunksFetched += ps.ChunksFetch
			rs.CacheHits += ps.CacheHits
			replayEpoch = head.WALEpoch
			ds.durableEpoch[i] = replayEpoch
			ds.pubSeq[i] = head.Seq
		}
		var shardSegs []WALSegment
		if i < len(segments) {
			shardSegs = segments[i]
		}
		var stale, replay []WALSegment
		for j, s := range shardSegs {
			if j > 0 && s.Epoch <= shardSegs[j-1].Epoch {
				return nil, rs, fmt.Errorf("%w: shard %d segment epochs not ascending (%d after %d)",
					ErrWALCorrupt, i, s.Epoch, shardSegs[j-1].Epoch)
			}
			if s.Epoch >= replayEpoch {
				replay = append(replay, s)
			} else {
				stale = append(stale, s)
			}
		}
		for j, s := range replay {
			want := replayEpoch + uint64(j)
			if s.Epoch != want {
				return nil, rs, fmt.Errorf("%w: shard %d missing wal epoch %d (found %d)",
					ErrWALCorrupt, i, want, s.Epoch)
			}
		}
		walName := ds.cfg.walName(i)
		w := NewWAL(ds.walKeys[i], walName, replayEpoch)
		shardReplayed := 0
		for j, s := range replay {
			batches, prefix, err := DecodeWAL(ds.walKeys[i], walName, s.Epoch, s.Bytes)
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: shard %d epoch %d: %w", i, s.Epoch, err)
			}
			final := j == len(replay)-1
			if !final && prefix != len(s.Bytes) {
				return nil, rs, fmt.Errorf("%w: shard %d sealed epoch %d torn at byte %d",
					ErrWALCorrupt, i, s.Epoch, prefix)
			}
			for _, ops := range batches {
				applied, err := ds.applyShardOps(i, ops)
				if err != nil {
					return nil, rs, err
				}
				rs.LogReplayCycles += applied
			}
			shardReplayed += len(batches)
			if final {
				w = &WAL{
					name: walName, key: ds.walKeys[i], epoch: s.Epoch,
					seq: uint64(len(batches)),
					buf: append([]byte(nil), s.Bytes[:prefix]...),
				}
			}
		}
		retained := append([]WALSegment(nil), stale...)
		if len(replay) > 1 {
			retained = append(retained, replay[:len(replay)-1]...)
		}
		w.attachSegments(retained)
		ds.wals[i] = w
		ds.dirty[i] = shardReplayed > 0
		rs.RecordsReplayed += shardReplayed
	}
	return ds, rs, nil
}

// rewoundStore serves, for the snapshot names in heads, an older published
// record as the newest one — a registry that lost its latest publishes —
// so recovery of those shards replays sealed WAL epochs as well as the
// live one.
type rewoundStore struct {
	*tamperStore
	heads map[string]uint64
}

func (s *rewoundStore) LatestSnapshot(name string) (uint64, []byte, bool) {
	if seq, ok := s.heads[name]; ok {
		rec, ok := s.SnapshotAt(name, seq)
		return seq, rec, ok
	}
	return s.tamperStore.LatestSnapshot(name)
}

// recoverScript is one crash image: a registry of snapshot chains, the
// surviving WAL segments, and the config to recover it with.
type recoverScript struct {
	cfg   DurableConfig
	store *rewoundStore
	segs  [][]WALSegment
	// warm holds the chunks a node that recovered this store once, before
	// its last snapshot, keeps cached; empty for a cold node.
	warm map[cryptbox.Digest][]byte
}

// buildRecoverScript runs a seeded script against a fresh durable store:
// a full snapshot, two delta snapshots whose mutations always touch shard
// k plus a random shard (so chains carry reuse links and shard k has a
// sealed epoch after each of them), and a live WAL tail with two puts in
// shard k.
func buildRecoverScript(t *testing.T, shards, k int, seed int64, warm bool) *recoverScript {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := &tamperStore{Registry: registry.New()}
	sc := &recoverScript{store: &rewoundStore{tamperStore: ts, heads: map[string]uint64{}}}
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0xA7}, cryptbox.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	sc.cfg = DurableConfig{
		Shards: shards, Workers: 2, Seed: seed,
		Service: "test/reference", SealKey: sealKey, SnapChunkSize: 256,
		Registry: sc.store, Engine: newScriptEngine(ts.Registry, 2, nil),
	}
	ds, err := NewDurableStore(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(n int) {
		for _, b := range genBatches(rng.Int63(), n, 10) {
			if err := ds.PutBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// mutate overwrites three of shard idx's keys with values of a fixed
	// length, so the chunks after them stay unchanged.
	mutate := func(idx int) {
		keys := keysForShard(t, ds, idx, 3)
		pairs := make([]Pair, len(keys))
		for j, key := range keys {
			pairs[j] = Pair{Key: key, Value: []byte(fmt.Sprintf("v%020d", rng.Int63()))}
		}
		if err := ds.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() {
		if _, err := ds.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	put(4)
	snapshot()
	for link := 0; link < 2; link++ {
		mutate(k)
		mutate(rng.Intn(shards))
		if warm && link == 1 {
			sc.warm = warmChunks(t, sc, ds.WALSegments())
		}
		snapshot()
	}
	put(3)
	mutate(k)
	mutate(k)
	sc.segs = cloneSegments(ds.WALSegments())
	return sc
}

// warmChunks recovers the script's store as it stands onto a fresh node
// and returns the chunks that node then holds.
func warmChunks(t *testing.T, sc *recoverScript, segs [][]WALSegment) map[cryptbox.Digest][]byte {
	t.Helper()
	cfg := sc.cfg
	cfg.Engine = newScriptEngine(sc.store.Registry, 2, nil)
	if _, _, err := recoverSequential(cfg, segs); err != nil {
		t.Fatal(err)
	}
	chunks := map[cryptbox.Digest][]byte{}
	for _, d := range sc.store.leaves() {
		if cfg.Engine.Cache.Contains(d) {
			b, err := sc.store.Registry.Blob(d)
			if err != nil {
				t.Fatal(err)
			}
			chunks[d] = b
		}
	}
	if len(chunks) == 0 {
		t.Fatal("warm node cached nothing")
	}
	return chunks
}

// newScriptEngine is a node with its own blob cache on the given
// registry, holding the given chunks.
func newScriptEngine(reg *registry.Registry, workers int, warm map[cryptbox.Digest][]byte) *container.Engine {
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = workers
	for d, b := range warm {
		eng.Cache.Put(d, b)
	}
	return eng
}

// recoverOutcome is everything a recovery leaves observable.
type recoverOutcome struct {
	rs       RecoveryStats
	err      error
	digest   cryptbox.Digest
	wals     []walState
	lastPull container.PullStats
	cache    container.BlobCacheStats
	cached   []cryptbox.Digest
}

// walState is one recovered shard's log position.
type walState struct {
	epoch, seq uint64
	segs       []WALSegment
}

func (sc *recoverScript) run(t *testing.T, workers int, recover func(DurableConfig, [][]WALSegment) (*DurableStore, RecoveryStats, error)) recoverOutcome {
	t.Helper()
	cfg := sc.cfg
	cfg.Workers = workers
	cfg.Engine = newScriptEngine(sc.store.Registry, workers, sc.warm)
	ds, rs, err := recover(cfg, cloneSegments(sc.segs))
	out := recoverOutcome{rs: rs, err: err, lastPull: cfg.Engine.LastPullStats(), cache: cfg.Engine.Cache.Stats()}
	for _, d := range sc.store.leaves() {
		if cfg.Engine.Cache.Contains(d) {
			out.cached = append(out.cached, d)
		}
	}
	if err != nil {
		return out
	}
	if out.digest, err = ds.StateDigest(); err != nil {
		t.Fatal(err)
	}
	for _, w := range ds.wals {
		w.mu.Lock()
		out.wals = append(out.wals, walState{epoch: w.epoch, seq: w.seq})
		w.mu.Unlock()
		out.wals[len(out.wals)-1].segs = w.Segments()
	}
	return out
}

// recoverSentinels are the errors.Is targets a recovery failure can carry.
var recoverSentinels = []error{ErrSnapshotChain, ErrWALCorrupt, ErrWALTorn, ErrTampered, container.ErrChunkVerify}

// TestPropRecoverMatchesSequential holds the parallel RecoverDurableStore
// to the shard-by-shard reference over seeded crash images: at every shard
// count, worker count and node temperature, a recovery that succeeds
// leaves the same stats, state, WAL positions, last pull and blob cache,
// and one that fails returns the same error from the same shard.
func TestPropRecoverMatchesSequential(t *testing.T) {
	// A damage rewrites a crash image; k < j are two distinct shards (j is
	// -1 with one shard). It returns the sentinel the recovery must fail
	// with, or nil when it must succeed.
	type damage func(t *testing.T, sc *recoverScript, k, j int) error
	flipSealed := func(t *testing.T, sc *recoverScript, k int) {
		// Rewinding shard k's head one snapshot puts a sealed epoch in its
		// replay range; the flip lands inside that epoch's first record.
		name := sc.cfg.snapName(k)
		seq, _, _ := sc.store.Registry.LatestSnapshot(name)
		sc.store.heads[name] = seq - 1
		segs := sc.segs[k]
		sealed := &segs[len(segs)-2]
		sealed.Bytes = append([]byte(nil), sealed.Bytes...)
		sealed.Bytes[len(sealed.Bytes)/2] ^= 0x40
	}
	forge := func(sc *recoverScript, j int) {
		// Shard j's head record re-pointed at another parent: the AAD
		// moves with the prefix, so it fails authentication.
		name := sc.cfg.snapName(j)
		sc.store.onRead = func(n string, seq uint64, sealed []byte) ([]byte, bool) {
			if n != name {
				return sealed, true
			}
			out := append([]byte(nil), sealed...)
			binary.BigEndian.PutUint64(out, binary.BigEndian.Uint64(out)+7)
			return out, true
		}
	}
	cases := []struct {
		name   string
		damage damage
	}{
		{"clean", func(*testing.T, *recoverScript, int, int) error { return nil }},
		{"torn-live-tail", func(t *testing.T, sc *recoverScript, k, _ int) error {
			live := &sc.segs[k][len(sc.segs[k])-1]
			bounds := recordBoundaries(t, live.Bytes)
			if len(bounds) < 3 {
				t.Fatalf("shard %d live tail holds %d records, want 2 or more", k, len(bounds)-1)
			}
			live.Bytes = live.Bytes[:bounds[1]+(bounds[2]-bounds[1])/2]
			return nil
		}},
		{"corrupt-sealed-segment", func(t *testing.T, sc *recoverScript, k, j int) error {
			flipSealed(t, sc, k)
			if j >= 0 {
				forge(sc, j) // a later shard's chain error must not win
			}
			return ErrWALCorrupt
		}},
		{"missing-epoch", func(t *testing.T, sc *recoverScript, k, _ int) error {
			name := sc.cfg.snapName(k)
			seq, _, _ := sc.store.Registry.LatestSnapshot(name)
			sc.store.heads[name] = seq - 1
			segs := sc.segs[k]
			sc.segs[k] = append(segs[:len(segs)-2:len(segs)-2], segs[len(segs)-1])
			return ErrWALCorrupt
		}},
		{"forged-chain-record", func(t *testing.T, sc *recoverScript, k, j int) error {
			if j < 0 {
				j = k
			}
			forge(sc, j)
			return ErrSnapshotChain
		}},
		{"tampered-chunk", func(t *testing.T, sc *recoverScript, k, j int) error {
			// Every chunk of shard k's head: the ones the last snapshot
			// changed are fetched even on a warm node.
			ds, err := NewDurableStore(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			head, man, _, err := ds.resolveSnapshotChain(k)
			if err != nil || head == nil {
				t.Fatalf("shard %d has no chain to tamper: %v", k, err)
			}
			for _, d := range man.Leaves {
				if !sc.store.Registry.TamperBlob(d, func(b []byte) []byte {
					out := append([]byte(nil), b...)
					out[0] ^= 0xFF
					return out
				}) {
					t.Fatal("tamper hook missed blob")
				}
			}
			if j >= 0 {
				forge(sc, j)
			}
			return container.ErrChunkVerify
		}},
	}
	for _, shards := range []int{1, 3, 8} {
		for ci, c := range cases {
			for _, warm := range []bool{false, true} {
				seed := int64(1000*shards + 10*ci)
				if warm {
					seed++
				}
				t.Run(fmt.Sprintf("shards=%d/%s/warm=%v", shards, c.name, warm), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					k, j := rng.Intn(max(shards-1, 1)), -1
					if k < shards-1 {
						j = k + 1 + rng.Intn(shards-k-1)
					}
					sc := buildRecoverScript(t, shards, k, seed, warm)
					want := c.damage(t, sc, k, j)
					ref := sc.run(t, 1, recoverSequential)
					if !errors.Is(ref.err, want) || (want == nil) != (ref.err == nil) {
						t.Fatalf("reference recovery: err = %v, want %v", ref.err, want)
					}
					if ref.err == nil && warm != (ref.rs.CacheHits > 0) {
						t.Fatalf("warm=%v node: %d cache hits", warm, ref.rs.CacheHits)
					}
					for _, workers := range []int{1, 2, 8} {
						got := sc.run(t, workers, RecoverDurableStore)
						compareRecoveries(t, workers, got, ref)
					}
				})
			}
		}
	}
}

func compareRecoveries(t *testing.T, workers int, got, ref recoverOutcome) {
	t.Helper()
	if (got.err == nil) != (ref.err == nil) {
		t.Fatalf("workers=%d: err = %v, reference %v", workers, got.err, ref.err)
	}
	if got.rs != ref.rs {
		t.Fatalf("workers=%d: stats %+v, reference %+v", workers, got.rs, ref.rs)
	}
	if ref.err != nil {
		if got.err.Error() != ref.err.Error() {
			t.Fatalf("workers=%d: err %q, reference %q", workers, got.err, ref.err)
		}
		for _, s := range recoverSentinels {
			if errors.Is(got.err, s) != errors.Is(ref.err, s) {
				t.Fatalf("workers=%d: errors.Is(%v) differs: %v vs %v", workers, s, got.err, ref.err)
			}
		}
		return
	}
	if got.digest != ref.digest {
		t.Fatalf("workers=%d: state digest differs", workers)
	}
	if len(got.wals) != len(ref.wals) {
		t.Fatalf("workers=%d: %d wals, reference %d", workers, len(got.wals), len(ref.wals))
	}
	for i, w := range got.wals {
		r := ref.wals[i]
		if w.epoch != r.epoch || w.seq != r.seq || !equalSegments(w.segs, r.segs) {
			t.Fatalf("workers=%d: shard %d wal at epoch %d seq %d, reference %d/%d",
				workers, i, w.epoch, w.seq, r.epoch, r.seq)
		}
	}
	if got.lastPull != ref.lastPull {
		t.Fatalf("workers=%d: last pull %+v, reference %+v", workers, got.lastPull, ref.lastPull)
	}
	if got.cache != ref.cache || fmt.Sprint(got.cached) != fmt.Sprint(ref.cached) {
		t.Fatalf("workers=%d: blob cache %+v, reference %+v", workers, got.cache, ref.cache)
	}
}

func equalSegments(a, b []WALSegment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch || !bytes.Equal(a[i].Bytes, b[i].Bytes) {
			return false
		}
	}
	return true
}
