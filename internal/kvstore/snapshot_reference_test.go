package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"securecloud/internal/registry"
	"securecloud/internal/transfer"
)

// snapshotSequential is the reference model of DurableStore.snapshot: the
// shard-by-shard loop it replaced. Each shard reads, packs, stores and
// publishes before the next one starts, and the first error ends the
// snapshot, so no shard after the failing one is read.
func (ds *DurableStore) snapshotSequential(full bool) (SnapshotStats, error) {
	st := SnapshotStats{Seq: ds.SnapshotSeq() + 1}
	for i, parent := range ds.pubSeq {
		name := ds.cfg.snapName(i)
		if !full && !ds.dirty[i] && parent > 0 {
			// Clean shard with a published parent: chain, don't pack. The
			// current epoch is empty (nothing was appended since the shard
			// was last clean), so recovery replays from it directly.
			man := snapshotManifest{
				Service: ds.cfg.Service, Shard: i, Seq: st.Seq, Parent: parent,
				WALEpoch: ds.wals[i].Epoch(), Reuse: true,
			}
			rec, err := sealSnapshotRecord(ds.snap[i], man, name)
			if err != nil {
				return st, err
			}
			if err := ds.cfg.Registry.PublishSnapshot(name, st.Seq, rec); err != nil {
				return st, err
			}
			ds.pubSeq[i] = st.Seq
			ds.durableEpoch[i] = man.WALEpoch
			st.ShardsReused++
			continue
		}
		sh := ds.At(i)
		before := sh.Cycles()
		sh.Lock()
		pairs, err := sh.V.Range("", "")
		sh.Unlock()
		if err != nil {
			return st, err
		}
		st.PackCycles += sh.Cycles() - before
		ops := make([]WALOp, len(pairs))
		for j, p := range pairs {
			ops[j] = WALOp{Key: p.Key, Value: p.Value}
		}
		payload, err := encodeWALOps(ops)
		if err != nil {
			return st, err
		}
		// The memo advances only once this pack is published; until then
		// it is cleared, so any failure below re-sends every chunk next time.
		memo := ds.memos[i]
		ds.memos[i] = nil
		p, err := transfer.PackConvergentMemo(name, payload, ds.cfg.SnapChunkSize, memo)
		if err != nil {
			return st, err
		}
		stored, err := ds.cfg.Registry.PutBlobSet(p.Manifest, p.Chunks)
		if err != nil {
			return st, err
		}
		st.ChunksPublished += len(p.Chunks)
		st.ChunksDeduped += len(p.Chunks) - stored
		st.BytesPublished += p.SealedBytes
		nextEpoch := ds.wals[i].Epoch() + 1
		man := snapshotManifest{
			Service: ds.cfg.Service, Shard: i, Seq: st.Seq, Parent: parent,
			WALEpoch: nextEpoch, Manifest: p.Manifest,
		}
		rec, err := sealSnapshotRecord(ds.snap[i], man, name)
		if err != nil {
			return st, err
		}
		if err := ds.cfg.Registry.PublishSnapshot(name, st.Seq, rec); err != nil {
			return st, err
		}
		ds.pubSeq[i] = st.Seq
		ds.memos[i] = p.Memo
		ds.wals[i].Roll(nextEpoch)
		ds.dirty[i] = false
		ds.durableEpoch[i] = nextEpoch
		st.ShardsPacked++
	}
	return st, nil
}

// snapshotTwin builds one side of TestPropSnapshotMatchesSequential: a
// durable store behind its own tamperStore, with small snapshot chunks so
// a shard table spans many of them and the memo matters.
func snapshotTwin(t *testing.T, shards, workers int) (*DurableStore, *tamperStore) {
	t.Helper()
	_, cfg := newDurableFixture(t, shards, workers)
	ts := &tamperStore{Registry: cfg.Engine.Registry.(*registry.Registry)}
	cfg.Registry = ts
	cfg.SnapChunkSize = 256
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ts
}

// TestPropSnapshotMatchesSequential holds the parallel snapshot to the
// shard-by-shard reference. Twin stores take the same writes and deletes
// over random dirty patterns, full and incremental snapshots, and
// registry failures injected into PutBlobSet or PublishSnapshot at a
// random shard; one side snapshots, the other runs snapshotSequential. At
// every worker count the registry must see the same blob sets in the same
// order and hold the same records byte for byte, the stats must be equal,
// and every shard must end with the same sequence, dirty flag, GC floor,
// WAL epoch and memo. A successful snapshot charges every shard the same
// cycles. A failed one leaves every shard after the failing one
// unpublished and as dirty as it was; the parallel side has already read,
// and so charged, the dirty ones, so from then on the twins' cycle
// ledgers part and only the bytes are compared.
func TestPropSnapshotMatchesSequential(t *testing.T) {
	const shards, rounds, seeds = 8, 8, 6
	failures := map[string]int{}
	for _, workers := range []int{1, 2, 8} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				par, pts := snapshotTwin(t, shards, workers)
				ref, rts := snapshotTwin(t, shards, workers)
				loadFixture(t, par, seed)
				loadFixture(t, ref, seed)
				rng := rand.New(rand.NewSource(seed))
				parted := false
				for round := 0; round < rounds; round++ {
					// A random dirty pattern: each shard takes writes of
					// random length (so chunk boundaries shift) or stays
					// clean.
					var pairs []Pair
					for i := 0; i < shards; i++ {
						if rng.Intn(4) == 0 {
							continue
						}
						for _, k := range keysForShard(t, par, i, 1+rng.Intn(4)) {
							v := make([]byte, 16+rng.Intn(48))
							rng.Read(v)
							pairs = append(pairs, Pair{Key: k, Value: v})
						}
					}
					for _, ds := range []*DurableStore{par, ref} {
						if err := ds.PutBatch(pairs); err != nil {
							t.Fatal(err)
						}
					}

					full := rng.Intn(6) == 0
					failAt, failPublish := -1, false
					if round > 0 && rng.Intn(3) == 0 {
						failAt, failPublish = rng.Intn(shards), rng.Intn(2) == 0
					}
					for _, ts := range []*tamperStore{pts, rts} {
						ts.calls = nil
						ts.failName, ts.failPut, ts.failPublish = "", false, false
						if failAt >= 0 {
							ts.failName = par.cfg.snapName(failAt)
							ts.failPut, ts.failPublish = !failPublish, failPublish
						}
					}
					dirtyBefore := slices.Clone(par.dirty)
					pubBefore := slices.Clone(par.pubSeq)
					parBefore, refBefore := par.ShardCycles(), ref.ShardCycles()

					got, gotErr := par.snapshot(full)
					want, wantErr := ref.snapshotSequential(full)

					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("round %d: snapshot error %v, reference %v", round, gotErr, wantErr)
					}
					if wantErr != nil && !errors.Is(wantErr, errInjected) {
						t.Fatalf("round %d: reference failed on its own: %v", round, wantErr)
					}
					if parted {
						// The ledgers parted at an earlier failure; only
						// PackCycles reads them.
						got.PackCycles, want.PackCycles = 0, 0
					}
					if got != want {
						t.Fatalf("round %d: stats %+v, reference %+v", round, got, want)
					}
					sameBlobSets(t, round, pts.calls, rts.calls)
					sameRecords(t, round, par, pts, rts)
					sameShardState(t, round, par, ref)

					parAfter, refAfter := par.ShardCycles(), ref.ShardCycles()
					if wantErr == nil {
						if !parted && !reflect.DeepEqual(parAfter, refAfter) {
							t.Fatalf("round %d: shard cycles %v, reference %v", round, parAfter, refAfter)
						}
						continue
					}
					kind := "put"
					if failPublish {
						kind = "publish"
					}
					failures[kind]++
					for i := failAt + 1; i < shards; i++ {
						if _, ok := pts.SnapshotAt(par.cfg.snapName(i), want.Seq); ok || par.pubSeq[i] != pubBefore[i] {
							t.Fatalf("round %d: shard %d after failing shard %d published", round, i, failAt)
						}
						if par.dirty[i] != dirtyBefore[i] {
							t.Fatalf("round %d: shard %d after failing shard %d: dirty %v, was %v", round, i, failAt, par.dirty[i], dirtyBefore[i])
						}
						// The documented charge: the reference never read
						// this shard, the parallel side read it if it
						// would have packed.
						if refAfter[i] != refBefore[i] {
							t.Fatalf("round %d: reference read shard %d after the failure", round, i)
						}
						if packs := full || dirtyBefore[i] || pubBefore[i] == 0; packs != (parAfter[i] > parBefore[i]) {
							t.Fatalf("round %d: shard %d (packs %v) charged %d cycles after failing shard %d",
								round, i, packs, parAfter[i]-parBefore[i], failAt)
						}
					}
					parted = parted || !reflect.DeepEqual(parAfter, refAfter)
				}
				pd, err := par.StateDigest()
				if err != nil {
					t.Fatal(err)
				}
				rd, err := ref.StateDigest()
				if err != nil {
					t.Fatal(err)
				}
				if pd != rd {
					t.Fatal("twins hold different state")
				}
			})
		}
	}
	if failures["put"] == 0 || failures["publish"] == 0 {
		t.Fatalf("injected failures %v: want both PutBlobSet and PublishSnapshot failures", failures)
	}
}

// sameBlobSets checks two PutBlobSet call logs are equal in order,
// manifest and chunk bytes.
func sameBlobSets(t *testing.T, round int, got, want []blobSetCall) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %d blob sets, reference %d", round, len(got), len(want))
	}
	for j := range want {
		if !reflect.DeepEqual(got[j].m, want[j].m) {
			t.Fatalf("round %d: blob set %d manifest %s differs from reference %s", round, j, got[j].m.Name, want[j].m.Name)
		}
		if len(got[j].chunks) != len(want[j].chunks) {
			t.Fatalf("round %d: blob set %d: %d chunks, reference %d", round, j, len(got[j].chunks), len(want[j].chunks))
		}
		for c := range want[j].chunks {
			if (got[j].chunks[c] == nil) != (want[j].chunks[c] == nil) || !bytes.Equal(got[j].chunks[c], want[j].chunks[c]) {
				t.Fatalf("round %d: blob set %d chunk %d differs from reference", round, j, c)
			}
		}
	}
}

// sameRecords checks both registries hold the same chain records, byte for
// byte, at every sequence either store could have published.
func sameRecords(t *testing.T, round int, ds *DurableStore, got, want *tamperStore) {
	t.Helper()
	for i := 0; i < ds.Shards(); i++ {
		name := ds.cfg.snapName(i)
		for seq := uint64(1); seq <= ds.SnapshotSeq()+1; seq++ {
			g, gok := got.SnapshotAt(name, seq)
			w, wok := want.SnapshotAt(name, seq)
			if gok != wok || !bytes.Equal(g, w) {
				t.Fatalf("round %d: %s seq %d record differs from reference (held %v, reference %v)", round, name, seq, gok, wok)
			}
		}
	}
}

// sameShardState checks every shard's snapshot bookkeeping against the
// reference twin's.
func sameShardState(t *testing.T, round int, got, want *DurableStore) {
	t.Helper()
	for i := 0; i < got.Shards(); i++ {
		if got.pubSeq[i] != want.pubSeq[i] || got.dirty[i] != want.dirty[i] ||
			got.durableEpoch[i] != want.durableEpoch[i] || got.wals[i].Epoch() != want.wals[i].Epoch() {
			t.Fatalf("round %d: shard %d seq/dirty/floor/epoch %d/%v/%d/%d, reference %d/%v/%d/%d", round, i,
				got.pubSeq[i], got.dirty[i], got.durableEpoch[i], got.wals[i].Epoch(),
				want.pubSeq[i], want.dirty[i], want.durableEpoch[i], want.wals[i].Epoch())
		}
		if !reflect.DeepEqual(got.memos[i], want.memos[i]) {
			t.Fatalf("round %d: shard %d memo (held %v) differs from reference (held %v)", round, i, got.memos[i] != nil, want.memos[i] != nil)
		}
	}
}
