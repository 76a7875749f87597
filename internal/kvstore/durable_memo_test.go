package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"securecloud/internal/registry"
	"securecloud/internal/shard"
	"securecloud/internal/transfer"
)

// newMemoFixture is newDurableFixture behind a tamperStore, with small
// snapshot chunks so a shard table spans many of them.
func newMemoFixture(t testing.TB, shards int) (*DurableStore, DurableConfig, *tamperStore) {
	t.Helper()
	_, cfg := newDurableFixture(t, shards, 2)
	ts := &tamperStore{Registry: cfg.Engine.Registry.(*registry.Registry)}
	cfg.Registry = ts
	cfg.SnapChunkSize = 256
	ds, err := NewDurableStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg, ts
}

// shardPayload renders shard i's slice of a reference map the way Snapshot
// serialises a shard table.
func shardPayload(t testing.TB, ds *DurableStore, ref map[string][]byte, idx int) []byte {
	t.Helper()
	var keys []string
	for k := range ref {
		if shard.Of(k, ds.Shards()) == idx {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	ops := make([]WALOp, len(keys))
	for i, k := range keys {
		ops[i] = WALOp{Key: k, Value: ref[k]}
	}
	payload, err := encodeWALOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDurableMemoMatchesPackConvergent is the reference model for the
// memoised pack: across successive snapshots of random tables — overwrites
// in place, and inserts and deletes that shift chunk boundaries — every
// published manifest deep-equals transfer.PackConvergent on the shard's
// payload, every chunk sent is byte-equal to PackConvergent's, and the
// SnapshotStats are the ones the unmemoised pack implies.
func TestDurableMemoMatchesPackConvergent(t *testing.T) {
	const shards = 4
	ds, cfg, ts := newMemoFixture(t, shards)
	rng := rand.New(rand.NewSource(71))
	ref := map[string][]byte{}
	randValue := func() []byte {
		v := make([]byte, 16+rng.Intn(64))
		rng.Read(v)
		return v
	}
	refs := 0
	for round := 0; round < 12; round++ {
		if round == 0 {
			batch := make([]Pair, 400)
			for j := range batch {
				batch[j] = Pair{Key: fmt.Sprintf("k-%05d", j*7), Value: randValue()}
			}
			if err := ds.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			applyToMap(ref, batch)
		} else {
			keys := make([]string, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var batch []Pair
			for j := 0; j < 6; j++ { // overwrite in place: boundaries hold
				k := keys[rng.Intn(len(keys))]
				v := make([]byte, len(ref[k]))
				rng.Read(v)
				batch = append(batch, Pair{Key: k, Value: v})
			}
			for j := 0; j < 3; j++ { // insert: later boundaries shift
				batch = append(batch, Pair{Key: fmt.Sprintf("k-%05d", rng.Intn(3000)), Value: randValue()})
			}
			for j := 0; j < 2; j++ { // shrink: later boundaries shift back
				k := keys[rng.Intn(len(keys))]
				batch = append(batch, Pair{Key: k, Value: ref[k][:len(ref[k])/2]})
			}
			if err := ds.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			applyToMap(ref, batch)
		}

		ts.calls = nil
		st, err := ds.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.calls) != st.ShardsPacked {
			t.Fatalf("round %d: %d blob sets for %d packed shards", round, len(ts.calls), st.ShardsPacked)
		}
		var wantChunks int
		var wantBytes int64
		for _, c := range ts.calls {
			shard := -1
			for i := 0; i < shards; i++ {
				if cfg.snapName(i) == c.m.Name {
					shard = i
				}
			}
			if shard < 0 {
				t.Fatalf("round %d: blob set for unknown name %q", round, c.m.Name)
			}
			wantM, want, err := transfer.PackConvergent(c.m.Name, shardPayload(t, ds, ref, shard), cfg.SnapChunkSize)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.m, wantM) {
				t.Fatalf("round %d shard %d: memoised manifest differs from PackConvergent", round, shard)
			}
			for i, ch := range c.chunks {
				if ch != nil && !bytes.Equal(ch, want[i]) {
					t.Fatalf("round %d shard %d: chunk %d differs from PackConvergent", round, shard, i)
				}
			}
			if round == 0 && c.refs() != 0 {
				t.Fatalf("first snapshot referenced %d chunks with no memo", c.refs())
			}
			refs += c.refs()
			wantChunks += len(want)
			for _, ch := range want {
				wantBytes += int64(len(ch))
			}
		}
		if st.ChunksPublished != wantChunks || st.BytesPublished != wantBytes {
			t.Fatalf("round %d: published %d chunks / %d bytes, PackConvergent implies %d / %d",
				round, st.ChunksPublished, st.BytesPublished, wantChunks, wantBytes)
		}
	}
	if refs == 0 {
		t.Fatal("no chunk was ever referenced: the memo never hit")
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
		t.Fatal("recovery from memoised snapshots differs from reference")
	}
}

// TestDurableMemoFailedSnapshot: a PutBlobSet or PublishSnapshot failure
// must not advance the shard's memo. The failed pack's new chunks may never
// have reached the registry, so the next snapshot sends every chunk of that
// shard again, and it publishes.
func TestDurableMemoFailedSnapshot(t *testing.T) {
	for _, failPublish := range []bool{false, true} {
		t.Run(fmt.Sprintf("failPublish=%v", failPublish), func(t *testing.T) {
			ds, cfg, ts := newMemoFixture(t, 2)
			ref := loadFixture(t, ds, 73)
			if _, err := ds.Snapshot(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(79))
			// Shard 0 is clean and publishes its reuse record first; the
			// failure hits shard 1's own PutBlobSet or PublishSnapshot.
			mutateShard(t, ds, ref, rng, 1, 2)
			ts.failName = cfg.snapName(1)
			ts.failPut, ts.failPublish = !failPublish, failPublish
			if _, err := ds.Snapshot(); !errors.Is(err, errInjected) {
				t.Fatalf("snapshot under injected failure: %v", err)
			}
			ts.failName, ts.failPut, ts.failPublish = "", false, false

			ts.calls = nil
			if _, err := ds.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if len(ts.calls) != 1 || ts.calls[0].refs() != 0 {
				t.Fatalf("snapshot after the failure: %d blob sets; want 1, sending every chunk", len(ts.calls))
			}
			// The successful pack restores the memo.
			mutateShard(t, ds, ref, rng, 1, 1)
			ts.calls = nil
			if _, err := ds.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if len(ts.calls) != 1 || ts.calls[0].refs() == 0 {
				t.Fatalf("snapshot after recovery from the failure referenced nothing")
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
				t.Fatal("recovery after a failed snapshot differs from reference")
			}
		})
	}
}

// TestDurableSnapshotAfterPartialFailure: a snapshot that fails at a middle
// shard, after the shards before it published under the failed sequence,
// must not wedge the ones after it. The next snapshot publishes — from the
// same store, or from one recovered from the uneven chain heads the failure
// left — and cold recovery equals the reference.
func TestDurableSnapshotAfterPartialFailure(t *testing.T) {
	const shards = 4
	for _, failPublish := range []bool{false, true} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("failPublish=%v/crash=%v", failPublish, crash), func(t *testing.T) {
				ds, cfg, ts := newMemoFixture(t, shards)
				ref := loadFixture(t, ds, 97)
				if _, err := ds.Snapshot(); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(101))
				// Shards 0 and 2 pack, 1 and 3 chain reuse records.
				mutateShard(t, ds, ref, rng, 0, 2)
				mutateShard(t, ds, ref, rng, 2, 2)
				ts.failName = cfg.snapName(2)
				ts.failPut, ts.failPublish = !failPublish, failPublish
				if _, err := ds.Snapshot(); !errors.Is(err, errInjected) {
					t.Fatalf("snapshot under injected failure: %v", err)
				}
				ts.failPut, ts.failPublish = false, false
				if crash {
					rec, _, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
					if err != nil {
						t.Fatal(err)
					}
					ds = rec
				}

				for round := 0; round < 2; round++ {
					mutateShard(t, ds, ref, rng, 2, 1)
					if _, err := ds.Snapshot(); err != nil {
						t.Fatalf("snapshot %d after the partial failure: %v", round, err)
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
					t.Fatal("recovery after a partial snapshot failure differs from reference")
				}
			})
		}
	}
}

// TestDurableMemoEmptyAfterRecovery: a recovered store knows nothing of
// what the crashed one published, so its first pack of each shard sends
// every chunk; the pack after that references again.
func TestDurableMemoEmptyAfterRecovery(t *testing.T) {
	const shards = 2
	ds, cfg, ts := newMemoFixture(t, shards)
	ref := loadFixture(t, ds, 83)
	rng := rand.New(rand.NewSource(89))
	// mutateShard's key exists from here on, so the overwrite below keeps
	// every chunk boundary.
	mutateShard(t, ds, ref, rng, 1, 1)
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	ts.calls = nil
	if _, err := rec.SnapshotFull(); err != nil {
		t.Fatal(err)
	}
	if len(ts.calls) != shards {
		t.Fatalf("full snapshot packed %d shards, want %d", len(ts.calls), shards)
	}
	for _, c := range ts.calls {
		if c.refs() != 0 {
			t.Fatalf("%s: recovered store referenced %d chunks with no memo", c.m.Name, c.refs())
		}
	}
	mutateShard(t, rec, ref, rng, 1, 1)
	ts.calls = nil
	if _, err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if len(ts.calls) != 1 || ts.calls[0].refs() == 0 {
		t.Fatal("second snapshot of the recovered store referenced nothing")
	}
}
