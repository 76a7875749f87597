// The durable sealed store: a ShardedStore whose state survives the
// process. Every shard pairs its in-enclave table with a sealed WAL
// (wal.go), and the store periodically publishes each shard's table as a
// content-addressed snapshot blob set to a registry. Crash recovery
// bootstraps a fresh store from the latest snapshot — pulled through the
// container engine's verified chunk path, so every chunk is digest-checked
// and the node BlobCache warms — then replays the post-snapshot WAL tail.
//
// Snapshots are incremental: the store tracks which shards changed since
// the last snapshot, and a clean shard publishes a tiny *reuse* record
// pointing at its parent sequence instead of re-packing its table. The
// records form a delta chain seq → parent seq per shard; recovery walks
// the chain down to the nearest packed manifest. Both seq and parent are
// bound into the sealed record's AAD, so a chain cannot be spliced: a
// record re-pointed at a different parent, or republished at a different
// sequence, fails authentication. Changed shards pack convergently, and
// each shard remembers its last published pack (transfer.ChunkMemo): a
// changed shard deflates and seals only the chunks whose plaintext changed,
// and references the unchanged ones — which the registry already holds —
// instead of re-sealing them.
//
// WAL epochs are the retention unit. A packed shard rolls its WAL into the
// next epoch (the sealed previous epoch stays on the durable medium); a
// reused shard keeps its current — empty — epoch. GC retires sealed
// segments strictly below the newest durable snapshot's epoch, behind a
// configurable retention margin, so the crash window never widens.
//
// Key hierarchy: everything derives from one service seal key (in the
// plane, itself derived from the attested KeyBroker release), so a replica
// that cannot attest cannot open its own durable state:
//
//	SealKey ─ "store|svc"    → table value sealing (all shards)
//	        ├ "wal|svc|i"    → shard i's WAL sealing + record MACs
//	        └ "snap|svc|i"   → shard i's snapshot manifest sealing
//
// Topology vs execution: shard count, WAL bytes, snapshot chunking and all
// Snapshot/GC/Recovery stats are topology — shards are snapshotted and
// recovered in shard order, and the engine pull's stats are
// worker-invariant — so every figure is bit-identical across worker counts.
package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
	"securecloud/internal/transfer"
)

// ErrSnapshotChain marks a delta chain that cannot be trusted: a spliced
// or cyclic parent pointer, a missing link, or a record that fails
// authentication. Recovery must fail loudly rather than restore from it.
var ErrSnapshotChain = errors.New("kvstore: snapshot chain invalid")

// SnapshotStore is the registry surface a durable store publishes to and
// recovers from (implemented by registry.Registry). PutBlobSet reports how
// many chunks were newly stored (the rest dedup'd against existing blobs);
// a nil chunk references a blob the store already holds under its leaf, and
// the call must fail — storing nothing — if it does not hold it intact.
// SnapshotAt serves historical records so recovery can walk delta chains.
type SnapshotStore interface {
	PutBlobSet(m *transfer.Manifest, chunks [][]byte) (stored int, err error)
	PublishSnapshot(name string, seq uint64, sealed []byte) error
	LatestSnapshot(name string) (seq uint64, sealed []byte, ok bool)
	SnapshotAt(name string, seq uint64) (sealed []byte, ok bool)
}

// DurableConfig sizes a durable sharded store.
type DurableConfig struct {
	// Shards/Workers/Seed/Platform/ShardBytes configure the underlying
	// accounted ShardedStore (ShardBytes defaults to 1 MiB).
	Shards     int
	Workers    int
	Seed       int64
	Platform   enclave.Config
	ShardBytes uint64
	// Service names the store's snapshots and logs in the registry.
	Service string
	// SealKey roots the store/WAL/snapshot key hierarchy; in the plane it
	// is derived from the KeyBroker-released service keys.
	SealKey cryptbox.Key
	// Registry receives snapshot blob sets and manifest records.
	Registry SnapshotStore
	// Engine pulls snapshot blob sets back on recovery (verified chunks,
	// shared node cache).
	Engine *container.Engine
	// SnapChunkSize is the snapshot chunk granularity (default 4 KiB);
	// smaller chunks dedup more across successive snapshots.
	SnapChunkSize int
	// GCRetainEpochs is GC's retention margin: the newest K sealed WAL
	// epochs per shard survive collection even when a snapshot covers
	// them (default 1; -1 keeps no margin). GC never touches epochs at
	// or after the newest durable snapshot regardless.
	GCRetainEpochs int
}

// DurableStore is a ShardedStore with a sealed WAL per shard,
// content-addressed incremental snapshots, and WAL-segment GC.
type DurableStore struct {
	*ShardedStore
	cfg      DurableConfig
	wals     []*WAL
	walKeys  []cryptbox.Key
	snapKeys []cryptbox.Key
	// pubSeq is, per shard, the newest sequence the shard published a
	// record under: the parent of its next record. A snapshot that fails
	// part-way leaves the shards that published ahead of the rest, and the
	// next snapshot takes a sequence after all of them.
	pubSeq []uint64
	// dirty marks shards mutated since their last packed snapshot; a clean
	// shard's next snapshot record reuses its parent manifest.
	dirty []bool
	// durableEpoch is, per shard, the first WAL epoch recovery would
	// replay over the newest published snapshot — the GC floor. 0 means
	// no snapshot covers the shard yet and nothing is collectible.
	durableEpoch []uint64
	// memos holds, per shard, the chunk memo of its last published pack:
	// chunks the registry is known to hold. A failed pack of the shard
	// clears it, so a registry that lost a blob is re-sent every chunk.
	// Recovery starts with none.
	memos []transfer.ChunkMemo
}

// snapshotManifest is the sealed record published per shard snapshot: a
// delta-chain link. A packed record (Reuse false) carries the blob-set
// manifest holding the shard's table; a reuse record (Reuse true) carries
// no manifest and defers to Parent. WALEpoch is the first epoch recovery
// replays on top — for a packed shard the fresh epoch the WAL rolled
// into, for a reused shard its current (empty at publish time) epoch.
type snapshotManifest struct {
	Service  string             `json:"service"`
	Shard    int                `json:"shard"`
	Seq      uint64             `json:"seq"`
	Parent   uint64             `json:"parent"`
	WALEpoch uint64             `json:"wal_epoch"`
	Reuse    bool               `json:"reuse,omitempty"`
	Manifest *transfer.Manifest `json:"manifest,omitempty"`
}

// snapshotAAD binds a sealed snapshot record to its name, sequence AND
// parent sequence — the anti-splice measure: re-pointing a record at a
// different parent changes the AAD and fails authentication.
func snapshotAAD(name string, seq, parent uint64) []byte {
	return []byte(fmt.Sprintf("kv-snap|%s|%d|%d", name, seq, parent))
}

// sealSnapshotRecord frames a chain link for the registry: the parent
// sequence in cleartext (8 bytes big-endian, so the opener can reconstruct
// the AAD) followed by the sealed JSON record. The cleartext prefix is
// untrusted input — authentication confirms it, because it feeds the AAD.
func sealSnapshotRecord(key cryptbox.Key, man snapshotManifest, name string) ([]byte, error) {
	raw, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	sealed, err := sealDeterministic(key, raw, snapshotAAD(name, man.Seq, man.Parent))
	if err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(sealed)), man.Parent)
	return append(out, sealed...), nil
}

func (cfg *DurableConfig) snapName(shard int) string {
	return fmt.Sprintf("%s/shard-%d", cfg.Service, shard)
}

func (cfg *DurableConfig) walName(shard int) string {
	return "wal/" + cfg.snapName(shard)
}

// NewDurableStore builds an empty durable store (WALs at epoch 1).
func NewDurableStore(cfg DurableConfig) (*DurableStore, error) {
	if cfg.Registry == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("kvstore: durable store %q needs a registry and an engine", cfg.Service)
	}
	if cfg.ShardBytes == 0 {
		cfg.ShardBytes = 1 << 20
	}
	if cfg.SnapChunkSize == 0 {
		cfg.SnapChunkSize = 4096
	}
	if cfg.GCRetainEpochs == 0 {
		cfg.GCRetainEpochs = 1
	}
	storeKey, err := cryptbox.DeriveKey(cfg.SealKey, "store|"+cfg.Service)
	if err != nil {
		return nil, err
	}
	ss, err := NewShardedStore(storeKey, ShardedStoreConfig{
		Shards: cfg.Shards, Workers: cfg.Workers, Seed: cfg.Seed,
		Accounted: true, Platform: cfg.Platform, ShardBytes: cfg.ShardBytes,
	})
	if err != nil {
		return nil, err
	}
	ds := &DurableStore{ShardedStore: ss, cfg: cfg}
	for i := 0; i < ss.Shards(); i++ {
		wk, err := cryptbox.DeriveKey(cfg.SealKey, fmt.Sprintf("wal|%s|%d", cfg.Service, i))
		if err != nil {
			return nil, err
		}
		sk, err := cryptbox.DeriveKey(cfg.SealKey, fmt.Sprintf("snap|%s|%d", cfg.Service, i))
		if err != nil {
			return nil, err
		}
		ds.walKeys = append(ds.walKeys, wk)
		ds.snapKeys = append(ds.snapKeys, sk)
		ds.wals = append(ds.wals, NewWAL(wk, cfg.walName(i), 1))
	}
	ds.pubSeq = make([]uint64, ss.Shards())
	ds.dirty = make([]bool, ss.Shards())
	ds.durableEpoch = make([]uint64, ss.Shards())
	ds.memos = make([]transfer.ChunkMemo, ss.Shards())
	return ds, nil
}

// PutBatch logs every shard's slice of the batch as one group-commit WAL
// record, then applies the batch to the table. The WAL appends run in
// shard order before the fan-out, so log bytes are bit-identical for any
// worker count.
func (ds *DurableStore) PutBatch(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	groups := make([][]WALOp, ds.Shards())
	for _, p := range pairs {
		i := ds.shardOf(p.Key)
		groups[i] = append(groups[i], WALOp{Key: p.Key, Value: p.Value})
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := ds.wals[i].Append(g); err != nil {
			return fmt.Errorf("kvstore: wal shard %d: %w", i, err)
		}
		ds.dirty[i] = true
	}
	return ds.ShardedStore.PutBatch(pairs)
}

// Delete logs and applies one deletion.
func (ds *DurableStore) Delete(key string) (bool, error) {
	i := ds.shardOf(key)
	if err := ds.wals[i].Append([]WALOp{{Key: key, Delete: true}}); err != nil {
		return false, fmt.Errorf("kvstore: wal shard %d: %w", i, err)
	}
	ds.dirty[i] = true
	return ds.ShardedStore.Delete(key), nil
}

// WALBytes returns each shard's live tail epoch bytes (see WALSegments for
// the full durable medium).
func (ds *DurableStore) WALBytes() [][]byte {
	out := make([][]byte, len(ds.wals))
	for i, w := range ds.wals {
		out[i] = w.Bytes()
	}
	return out
}

// WALSegments returns every shard's durable log segments — sealed epochs
// plus the live tail, what survives a crash alongside the registry's
// snapshots and what RecoverDurableStore consumes.
func (ds *DurableStore) WALSegments() [][]WALSegment {
	out := make([][]WALSegment, len(ds.wals))
	for i, w := range ds.wals {
		out[i] = w.Segments()
	}
	return out
}

// SnapshotSeq returns the newest sequence any shard has published a
// snapshot record under (0 = never snapshotted).
func (ds *DurableStore) SnapshotSeq() uint64 { return slices.Max(ds.pubSeq) }

// SnapshotStats is what one Snapshot call published and cost. Every field
// is topology: bit-identical across worker counts.
type SnapshotStats struct {
	// Seq is the sequence the snapshot published under.
	Seq uint64
	// ShardsPacked counts shards whose table was re-packed and published;
	// ShardsReused counts clean shards that published a reuse record
	// pointing at their parent manifest instead.
	ShardsPacked int
	ShardsReused int
	// ChunksPublished counts chunks submitted for packed shards, sealed or
	// referenced; ChunksDeduped is how many of those the registry already
	// held (convergent chunks — unchanged content is bit-identical).
	ChunksPublished int
	ChunksDeduped   int
	// BytesPublished sums the sealed bytes of the submitted chunks,
	// referenced ones included.
	BytesPublished int64
	// PackCycles sums the sim-cycles charged reading packed shards'
	// tables. Reused shards skip the read entirely — the delta saving.
	PackCycles sim.Cycles
}

// Snapshot publishes an incremental snapshot: dirty shards pack their
// table as a content-addressed blob set (unchanged chunks are referenced,
// not re-sealed), clean shards publish a reuse record chaining to their
// previous manifest.
// Packed shards roll their WAL into the next epoch; reused shards keep
// their current (empty) epoch. Shards publish in shard order —
// deterministic bytes, names and sequence for any worker count.
func (ds *DurableStore) Snapshot() (SnapshotStats, error) {
	return ds.snapshot(false)
}

// SnapshotFull packs and publishes every shard regardless of dirty state —
// the non-incremental baseline (and the shape every first snapshot takes).
func (ds *DurableStore) SnapshotFull() (SnapshotStats, error) {
	return ds.snapshot(true)
}

func (ds *DurableStore) snapshot(full bool) (SnapshotStats, error) {
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
			rec, err := sealSnapshotRecord(ds.snapKeys[i], man, name)
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
		rec, err := sealSnapshotRecord(ds.snapKeys[i], man, name)
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

// GCStats is what one GC pass retired.
type GCStats struct {
	SegmentsRetired int
	BytesRetired    int64
}

// GC retires WAL segments a durable snapshot has made redundant: per
// shard, sealed epochs strictly below the newest published snapshot's
// replay epoch, keeping the configured retention margin of newest sealed
// epochs. It refuses to collect past the newest durable snapshot — a
// shard with no published snapshot retires nothing — so the set of bytes
// recovery needs is never narrowed.
func (ds *DurableStore) GC() GCStats {
	var g GCStats
	for i, w := range ds.wals {
		retired, bytes := w.GC(ds.durableEpoch[i], ds.cfg.GCRetainEpochs)
		g.SegmentsRetired += retired
		g.BytesRetired += bytes
	}
	return g
}

// RecoveryStats is what a crash-recovery run cost. Every field is
// topology: bit-identical across worker counts.
type RecoveryStats struct {
	// SnapshotBootstrapCycles sums the verified-pull and table-rebuild
	// cycles of loading every shard's snapshot.
	SnapshotBootstrapCycles sim.Cycles
	// LogReplayCycles sums the cycles of replaying every shard's WAL tail.
	LogReplayCycles sim.Cycles
	// RecordsReplayed counts WAL records applied across shards.
	RecordsReplayed int
	// SnapshotPairs counts records restored from snapshots.
	SnapshotPairs int
	// ChunksFetched/CacheHits aggregate the snapshot pulls' chunk traffic —
	// a warm recovery on the same node hits the BlobCache for every chunk
	// the previous pull (or a prior snapshot) already verified.
	ChunksFetched int
	CacheHits     int
	// ChainLinks counts delta-chain records resolved across shards (1 per
	// shard when its head is packed, more when reuse records chain back).
	ChainLinks int
}

// applyShardOps replays ops into one shard in order, returning the cycle
// delta the replay charged to the shard's memory.
func (ds *DurableStore) applyShardOps(i int, ops []WALOp) (sim.Cycles, error) {
	sh := ds.At(i)
	sh.Lock()
	defer sh.Unlock()
	before := sh.Cycles()
	for _, op := range ops {
		if op.Delete {
			sh.V.Delete(op.Key)
			continue
		}
		if err := sh.V.Put(op.Key, op.Value); err != nil {
			return 0, err
		}
	}
	return sh.Cycles() - before, nil
}

// openSnapshotRecord authenticates and decodes one chain link. The
// cleartext parent prefix feeds the AAD, so a record spliced to another
// (name, seq, parent) position fails here; the decoded payload is then
// cross-checked against every position field.
func (ds *DurableStore) openSnapshotRecord(i int, name string, seq uint64, rec []byte) (*snapshotManifest, error) {
	if len(rec) < 8 {
		return nil, fmt.Errorf("%w: %s seq %d record truncated", ErrSnapshotChain, name, seq)
	}
	parent := binary.BigEndian.Uint64(rec)
	box, err := cryptbox.NewBox(ds.snapKeys[i])
	if err != nil {
		return nil, err
	}
	raw, err := box.Open(rec[8:], snapshotAAD(name, seq, parent))
	if err != nil {
		return nil, fmt.Errorf("%w: %s seq %d failed authentication: %v", ErrSnapshotChain, name, seq, err)
	}
	var man snapshotManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%w: %s seq %d: %v", ErrSnapshotChain, name, seq, err)
	}
	if man.Service != ds.cfg.Service || man.Shard != i || man.Seq != seq || man.Parent != parent {
		return nil, fmt.Errorf("%w: %s seq %d record names %s/shard-%d seq %d parent %d",
			ErrSnapshotChain, name, seq, man.Service, man.Shard, man.Seq, man.Parent)
	}
	if man.Reuse == (man.Manifest != nil) {
		return nil, fmt.Errorf("%w: %s seq %d carries reuse=%v with manifest=%v",
			ErrSnapshotChain, name, seq, man.Reuse, man.Manifest != nil)
	}
	return &man, nil
}

// resolveSnapshotChain walks shard i's delta chain from the registry head
// down to the nearest packed manifest. Each link must authenticate at its
// own (seq, parent) position, parents must strictly decrease and exist —
// a missing link, cycle, or rollback past the root fails the walk.
func (ds *DurableStore) resolveSnapshotChain(i int) (head *snapshotManifest, man *transfer.Manifest, links int, err error) {
	name := ds.cfg.snapName(i)
	seq, rec, ok := ds.cfg.Registry.LatestSnapshot(name)
	if !ok {
		return nil, nil, 0, nil
	}
	head, err = ds.openSnapshotRecord(i, name, seq, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	links = 1
	cur := head
	for cur.Reuse {
		if cur.Parent == 0 || cur.Parent >= cur.Seq {
			return nil, nil, links, fmt.Errorf("%w: %s seq %d reuse points at parent %d",
				ErrSnapshotChain, name, cur.Seq, cur.Parent)
		}
		prec, ok := ds.cfg.Registry.SnapshotAt(name, cur.Parent)
		if !ok {
			return nil, nil, links, fmt.Errorf("%w: %s seq %d parent record %d missing",
				ErrSnapshotChain, name, cur.Seq, cur.Parent)
		}
		pman, err := ds.openSnapshotRecord(i, name, cur.Parent, prec)
		if err != nil {
			return nil, nil, links, err
		}
		if pman.WALEpoch > cur.WALEpoch {
			return nil, nil, links, fmt.Errorf("%w: %s seq %d parent epoch %d after child epoch %d",
				ErrSnapshotChain, name, cur.Seq, pman.WALEpoch, cur.WALEpoch)
		}
		links++
		cur = pman
	}
	return head, cur.Manifest, links, nil
}

// RecoverDurableStore rebuilds a durable store after a crash from what
// survives: the registry's snapshot chains plus each shard's WAL segments
// (nil/missing entries mean that shard's log was lost entirely). Shards
// recover in shard order; each resolves its delta chain to the nearest
// packed manifest — pulling only chunks absent from the engine's node
// cache — then replays the segments at or after the head record's epoch
// under the torn-tail discipline (only the final, live segment may be
// torn; damage or epoch gaps anywhere earlier are hard errors). Sealed
// segments recovery skipped stay attached, so a post-recovery GC can
// still retire them. The returned store is ready for new appends.
func RecoverDurableStore(cfg DurableConfig, segments [][]WALSegment) (*DurableStore, RecoveryStats, error) {
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
			payload, ps, err := cfg.Engine.PullBlobSet(man, name)
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: snapshot %s: %w", name, err)
			}
			ops, err := decodeWALOps(payload)
			if err != nil {
				return nil, rs, fmt.Errorf("kvstore: snapshot %s: %w", name, err)
			}
			applied, err := ds.applyShardOps(i, ops)
			if err != nil {
				return nil, rs, err
			}
			rs.SnapshotBootstrapCycles += ps.SerialCycles + applied
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
				// A torn tail is only explicable in the segment being
				// appended to when the process died — the live one.
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
					seq:     uint64(len(batches)),
					buf:     append([]byte(nil), s.Bytes[:prefix]...),
					records: len(batches),
				}
			}
		}
		retained := append([]WALSegment(nil), stale...)
		if len(replay) > 1 {
			retained = append(retained, replay[:len(replay)-1]...)
		}
		w.attachSegments(retained)
		ds.wals[i] = w
		// Replayed records are state the next snapshot must pack — a reuse
		// record here would point at a manifest missing the tail.
		ds.dirty[i] = shardReplayed > 0
		rs.RecordsReplayed += shardReplayed
	}
	return ds, rs, nil
}

// StateDigest returns a digest of the store's decrypted contents in global
// key order — the bit-identity check between a recovered store and a
// never-crashed twin.
func (ss *ShardedStore) StateDigest() (cryptbox.Digest, error) {
	pairs, err := ss.Range("", "")
	if err != nil {
		return cryptbox.Digest{}, err
	}
	ops := make([]WALOp, len(pairs))
	for i, p := range pairs {
		ops[i] = WALOp{Key: p.Key, Value: p.Value}
	}
	payload, err := encodeWALOps(ops)
	if err != nil {
		return cryptbox.Digest{}, err
	}
	return cryptbox.Sum(payload), nil
}
