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
// Snapshot/GC/Recovery stats are topology, so every figure is
// bit-identical across worker counts. A snapshot packs the shards in
// parallel on the shard fan-out and publishes them in shard order; a
// failed snapshot may already have read, and charged, the shards after
// the failing one, which stay unpublished. Recovery resolves, assembles
// and replays shards in parallel — each shard owns its platform, and each
// pulled set gets its own verification enclave — while what crosses
// shards stays in shard order: the chunk fetches that warm the node
// cache, the error reported, and the stats sums.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"securecloud/internal/codec"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
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
	// Shards/Workers/Seed/ShardBytes configure the underlying accounted
	// ShardedStore, every shard on the default platform (ShardBytes
	// defaults to 1 MiB).
	Shards     int
	Workers    int
	Seed       int64
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
}

// DurableStore is a ShardedStore with a sealed WAL per shard,
// content-addressed incremental snapshots, and WAL-segment GC.
type DurableStore struct {
	*ShardedStore
	cfg     DurableConfig
	wals    []*WAL
	walKeys []cryptbox.Key
	// snap seals and opens each shard's snapshot chain records under its
	// snapshot key.
	snap []*sealer
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
	Service  string
	Shard    int
	Seq      uint64
	Parent   uint64
	WALEpoch uint64
	Reuse    bool
	Manifest *transfer.Manifest
}

// The flags byte of an encoded snapshotManifest; any other bit is
// malformed.
const (
	recordReuse       = 1 << 0
	recordHasManifest = 1 << 1
)

// appendBinary appends the record's encoding to b:
//
//	uvarint service length, service, u32 shard, u64 seq, u64 parent,
//	u64 WAL epoch, u8 flags (recordReuse, recordHasManifest), then the
//	manifest (transfer.Manifest.AppendBinary) when recordHasManifest is
//	set.
func (man *snapshotManifest) appendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(man.Service)))
	b = append(b, man.Service...)
	b = binary.BigEndian.AppendUint32(b, uint32(man.Shard))
	b = binary.BigEndian.AppendUint64(b, man.Seq)
	b = binary.BigEndian.AppendUint64(b, man.Parent)
	b = binary.BigEndian.AppendUint64(b, man.WALEpoch)
	var flags byte
	if man.Reuse {
		flags |= recordReuse
	}
	if man.Manifest == nil {
		return append(b, flags)
	}
	return man.Manifest.AppendBinary(append(b, flags|recordHasManifest))
}

// decodeSnapshotManifest reverses appendBinary, rejecting unknown flag
// bits and trailing bytes. It checks the format only: whether the record
// belongs where it was found, and whether its reuse flag agrees with its
// manifest, is openSnapshotRecord's to check.
func decodeSnapshotManifest(b []byte) (snapshotManifest, error) {
	var (
		man   snapshotManifest
		n     uint64
		svc   []byte
		shard uint32
		flags byte
		err   error
	)
	n, r := codec.NewReader(b).Uvarint()
	svc, r = r.Bytes(int(n))
	shard, r = r.U32()
	man.Seq, r = r.U64()
	man.Parent, r = r.U64()
	man.WALEpoch, r = r.U64()
	flags, r = r.U8()
	if err := r.Err(); err != nil {
		return man, fmt.Errorf("kvstore: snapshot record: %w", err)
	}
	if flags&^(recordReuse|recordHasManifest) != 0 {
		return man, fmt.Errorf("kvstore: snapshot record has unknown flags %#x: %w", flags, codec.ErrMalformed)
	}
	man.Service, man.Shard, man.Reuse = string(svc), int(shard), flags&recordReuse != 0
	if flags&recordHasManifest != 0 {
		if man.Manifest, r, err = transfer.ReadManifest(r); err != nil {
			return man, fmt.Errorf("kvstore: snapshot record: %w", err)
		}
	}
	if err := r.Done(); err != nil {
		return man, fmt.Errorf("kvstore: snapshot record: %w", err)
	}
	return man, nil
}

// snapshotAAD binds a sealed snapshot record to its name, sequence AND
// parent sequence — the anti-splice measure: re-pointing a record at a
// different parent changes the AAD and fails authentication.
func snapshotAAD(name string, seq, parent uint64) []byte {
	return []byte(fmt.Sprintf("kv-snap|%s|%d|%d", name, seq, parent))
}

// sealSnapshotRecord frames a chain link for the registry: the parent
// sequence in cleartext (8 bytes big-endian, so the opener can reconstruct
// the AAD) followed by the sealed binary record (appendBinary). The
// cleartext prefix is untrusted input — authentication confirms it,
// because it feeds the AAD.
func sealSnapshotRecord(seal *sealer, man snapshotManifest, name string) ([]byte, error) {
	raw := man.appendBinary(nil)
	out := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(raw)+seal.box.Overhead()), man.Parent)
	return seal.sealDeterministic(out, raw, snapshotAAD(name, man.Seq, man.Parent))
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
	storeKey, err := cryptbox.DeriveKey(cfg.SealKey, "store|"+cfg.Service)
	if err != nil {
		return nil, err
	}
	ss, err := NewShardedStore(storeKey, ShardedStoreConfig{
		Shards: cfg.Shards, Workers: cfg.Workers, Seed: cfg.Seed,
		Accounted: true, ShardBytes: cfg.ShardBytes,
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
		snap, err := newSealer(sk)
		if err != nil {
			return nil, err
		}
		ds.walKeys = append(ds.walKeys, wk)
		ds.snap = append(ds.snap, snap)
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
	groups := groupPairs(pairs, ds.Shards())
	var ops []WALOp // Append does not keep ops, so one buffer serves every shard
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		ops = ops[:0]
		for _, p := range g {
			ops = append(ops, WALOp{Key: p.Key, Value: p.Value})
		}
		if err := ds.wals[i].Append(ops); err != nil {
			return fmt.Errorf("kvstore: wal shard %d: %w", i, err)
		}
		ds.dirty[i] = true
	}
	return ds.putGroups(groups)
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
// their current (empty) epoch. Shards pack in parallel and publish in
// shard order — deterministic bytes, names and sequence for any worker
// count. A failure stops the publishing at the failing shard; the shards
// after it may already have been read, and charged for it.
func (ds *DurableStore) Snapshot() (SnapshotStats, error) {
	return ds.snapshot(false)
}

// SnapshotFull packs and publishes every shard regardless of dirty state —
// the non-incremental baseline (and the shape every first snapshot takes).
func (ds *DurableStore) SnapshotFull() (SnapshotStats, error) {
	return ds.snapshot(true)
}

// snapshot runs in two phases. packShard builds every shard's publication
// on the shard fan-out — each shard's read charges only its own platform,
// and nothing else of the store changes. The loop below then makes the
// registry calls and updates each shard's state in shard order, stopping
// at the first failure, so the registry sees the same calls with the same
// bytes in the same order as from a one-shard-at-a-time snapshot. A
// failed snapshot may already have read, and so charged, the shards after
// the failing one; those stay unpublished, with their memo, dirty flag
// and WAL epoch untouched.
func (ds *DurableStore) snapshot(full bool) (SnapshotStats, error) {
	st := SnapshotStats{Seq: ds.SnapshotSeq() + 1}
	pubs := make([]shardPub, ds.Shards())
	ds.ForEach(func(i int) { pubs[i] = ds.packShard(i, st.Seq, full) })
	for i := range pubs {
		p := &pubs[i]
		name := ds.cfg.snapName(i)
		st.PackCycles += p.cycles
		if p.spent {
			// The memo advances only once this pack is published; until
			// then it is cleared, so any failure below re-sends every chunk
			// next time.
			ds.memos[i] = nil
		}
		if p.packErr != nil {
			return st, p.packErr
		}
		if p.pack != nil {
			stored, err := ds.cfg.Registry.PutBlobSet(p.pack.Manifest, p.pack.Chunks)
			if err != nil {
				return st, err
			}
			st.ChunksPublished += len(p.pack.Chunks)
			st.ChunksDeduped += len(p.pack.Chunks) - stored
			st.BytesPublished += p.pack.SealedBytes
		}
		if p.sealErr != nil {
			return st, p.sealErr
		}
		if err := ds.cfg.Registry.PublishSnapshot(name, st.Seq, p.rec); err != nil {
			return st, err
		}
		ds.pubSeq[i] = st.Seq
		ds.durableEpoch[i] = p.epoch
		if p.pack == nil {
			st.ShardsReused++
			continue
		}
		ds.memos[i] = p.pack.Memo
		ds.wals[i].Roll(p.epoch)
		ds.dirty[i] = false
		st.ShardsPacked++
	}
	return st, nil
}

// shardPub is one shard's part of a snapshot, built by packShard and
// published by snapshot. Its errors are kept, not returned, so snapshot
// reports each at the point of the shard-order walk where the
// one-shard-at-a-time loop it replaced would have met it.
type shardPub struct {
	// pack is the shard's packed table; nil for a reuse record.
	pack *transfer.MemoPack
	// rec is the sealed chain record and epoch the WAL epoch it names.
	rec   []byte
	epoch uint64
	// cycles were charged reading the table.
	cycles sim.Cycles
	// spent reports that packing started from the shard's memo: from then
	// on a failure leaves the memo cleared.
	spent bool
	// packErr failed reading or packing the table, before any registry
	// call; sealErr failed sealing the record, after PutBlobSet.
	packErr, sealErr error
}

// packShard builds shard i's publication under sequence seq — read,
// encode, pack and seal — and touches no store state beyond charging the
// read to the shard's own platform, so snapshot runs it on every shard at
// once.
func (ds *DurableStore) packShard(i int, seq uint64, full bool) (p shardPub) {
	name := ds.cfg.snapName(i)
	man := snapshotManifest{
		Service: ds.cfg.Service, Shard: i, Seq: seq, Parent: ds.pubSeq[i],
		WALEpoch: ds.wals[i].Epoch(),
	}
	if !full && !ds.dirty[i] && man.Parent > 0 {
		// Clean shard with a published parent: chain, don't pack. The
		// current epoch is empty (nothing was appended since the shard was
		// last clean), so recovery replays from it directly.
		man.Reuse = true
		p.epoch = man.WALEpoch
		p.rec, p.sealErr = sealSnapshotRecord(ds.snap[i], man, name)
		return p
	}
	sh := ds.At(i)
	before := sh.Cycles()
	sh.Lock()
	pairs, err := sh.V.Range("", "")
	sh.Unlock()
	if err != nil {
		p.packErr = err
		return p
	}
	p.cycles = sh.Cycles() - before
	ops := make([]WALOp, len(pairs))
	for j, kv := range pairs {
		ops[j] = WALOp{Key: kv.Key, Value: kv.Value}
	}
	payload, err := encodeWALOps(ops)
	if err != nil {
		p.packErr = err
		return p
	}
	p.spent = true
	if p.pack, p.packErr = transfer.PackConvergentMemo(name, payload, ds.cfg.SnapChunkSize, ds.memos[i]); p.packErr != nil {
		return p
	}
	man.WALEpoch++
	man.Manifest = p.pack.Manifest
	p.epoch = man.WALEpoch
	p.rec, p.sealErr = sealSnapshotRecord(ds.snap[i], man, name)
	return p
}

// GCStats is what one GC pass retired.
type GCStats struct {
	SegmentsRetired int
	BytesRetired    int64
}

// GC retires WAL segments a durable snapshot has made redundant: per
// shard, sealed epochs strictly below the newest published snapshot's
// replay epoch, keeping the newest sealed epoch as a retention margin
// (WAL.GC). It refuses to collect past the newest durable snapshot — a
// shard with no published snapshot retires nothing — so the set of bytes
// recovery needs is never narrowed.
func (ds *DurableStore) GC() GCStats {
	var g GCStats
	for i, w := range ds.wals {
		retired, bytes := w.GC(ds.durableEpoch[i])
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

// onShard runs fn on shard i's table under the shard lock, returning the
// cycle delta it charged to the shard's memory.
func (ds *DurableStore) onShard(i int, fn func(*Store) error) (sim.Cycles, error) {
	sh := ds.At(i)
	sh.Lock()
	defer sh.Unlock()
	before := sh.Cycles()
	if err := fn(sh.V); err != nil {
		return 0, err
	}
	return sh.Cycles() - before, nil
}

// applyShardOps replays ops into one shard in order, returning the cycle
// delta the replay charged to the shard's memory.
func (ds *DurableStore) applyShardOps(i int, ops []WALOp) (sim.Cycles, error) {
	return ds.onShard(i, func(s *Store) error {
		for _, op := range ops {
			if err := s.Put(op.Key, op.Value); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadShard bootstraps shard i, still empty, from its snapshot's ops in
// one pass (Store.load), returning the cycle delta it charged.
func (ds *DurableStore) loadShard(i int, ops []WALOp) (sim.Cycles, error) {
	return ds.onShard(i, func(s *Store) error { return s.load(ops) })
}

// openSnapshotRecord authenticates and decodes one chain link. The
// cleartext parent prefix feeds the AAD, so a record spliced to another
// (name, seq, parent) position fails here; the decoded payload is then
// cross-checked against every position field.
func (ds *DurableStore) openSnapshotRecord(i int, name string, seq uint64, rec []byte) (*snapshotManifest, error) {
	parent, r := codec.NewReader(rec).U64() // a record too short for its parent opens nothing
	raw, err := ds.snap[i].box.Open(r.Rest(), snapshotAAD(name, seq, parent))
	if err != nil {
		return nil, fmt.Errorf("%w: %s seq %d failed authentication: %v", ErrSnapshotChain, name, seq, err)
	}
	man, err := decodeSnapshotManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s seq %d: %w", ErrSnapshotChain, name, seq, err)
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
// (nil/missing entries mean that shard's log was lost entirely). It runs
// in three phases, on the store's shard fan-out:
//
//  1. Every shard resolves its delta chain to the nearest packed manifest,
//     in parallel.
//  2. One Engine.PullBlobSets call pulls the chain heads of the shards
//     before the first chain error. It fetches in shard order — only
//     chunks absent from the engine's node cache — and assembles the sets
//     in parallel.
//  3. Every shard decodes its snapshot and bulk-loads it into its empty
//     table in one pass (Store.load), then replays, record by record, the
//     segments at or after the head record's epoch, in parallel, under
//     the torn-tail discipline: only the final, live segment may be torn;
//     damage or epoch gaps anywhere earlier are hard errors.
//
// What a sequential, shard-by-shard recovery would observe stays ordered:
// the fetch order (so per-shard ChunksFetched and CacheHits), the error —
// the lowest failing shard's, from its earliest failing phase — the stats,
// summed in shard order, and the engine's LastPullStats, the last pulled
// shard's. Sealed segments recovery skipped stay attached, so a
// post-recovery GC can still retire them. The returned store is ready for
// new appends.
func RecoverDurableStore(cfg DurableConfig, segments [][]WALSegment) (*DurableStore, RecoveryStats, error) {
	ds, err := NewDurableStore(cfg)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	shards := make([]shardRecovery, ds.Shards())
	ds.ForEach(func(i int) {
		r := &shards[i]
		var links int
		r.head, r.man, links, r.err = ds.resolveSnapshotChain(i)
		if r.err == nil {
			r.stats.ChainLinks = links
		}
	})

	var (
		lms    []*transfer.Manifest
		labels []string
		owners []int
	)
	for i := range shards {
		if shards[i].err != nil {
			break
		}
		if shards[i].head != nil {
			lms = append(lms, shards[i].man)
			labels = append(labels, ds.cfg.snapName(i))
			owners = append(owners, i)
		}
	}
	payloads, pulls, err := cfg.Engine.PullBlobSets(lms, labels)
	for j, ps := range pulls {
		r := &shards[owners[j]]
		r.payload, r.pull = payloads[j], ps
	}
	if err != nil {
		i := owners[len(pulls)-1]
		shards[i].err = fmt.Errorf("kvstore: snapshot %s: %w", labels[len(pulls)-1], err)
	}

	failed := slices.IndexFunc(shards, func(r shardRecovery) bool { return r.err != nil })
	ds.ForEach(func(i int) {
		if failed < 0 || i < failed {
			var segs []WALSegment
			if i < len(segments) {
				segs = segments[i]
			}
			shards[i].err = ds.recoverShard(i, &shards[i], segs)
		}
	})
	var rs RecoveryStats
	for _, r := range shards {
		rs.add(r.stats)
		if r.err != nil {
			return nil, rs, r.err
		}
	}
	return ds, rs, nil
}

// shardRecovery is one shard's progress through RecoverDurableStore.
type shardRecovery struct {
	head    *snapshotManifest // nil when the shard never published
	man     *transfer.Manifest
	payload []byte
	pull    container.PullStats
	stats   RecoveryStats
	err     error
}

// add sums another shard's recovery stats into rs.
func (rs *RecoveryStats) add(o RecoveryStats) {
	rs.SnapshotBootstrapCycles += o.SnapshotBootstrapCycles
	rs.LogReplayCycles += o.LogReplayCycles
	rs.RecordsReplayed += o.RecordsReplayed
	rs.SnapshotPairs += o.SnapshotPairs
	rs.ChunksFetched += o.ChunksFetched
	rs.CacheHits += o.CacheHits
	rs.ChainLinks += o.ChainLinks
}

// recoverShard rebuilds shard i from its pulled snapshot payload and its
// WAL segments. It adds to r.stats when the shard-by-shard loop did, so a
// failure leaves the same partial stats: the snapshot's figures once it is
// applied, replay cycles per applied record, and the record count only
// once every segment replayed.
func (ds *DurableStore) recoverShard(i int, r *shardRecovery, segs []WALSegment) error {
	replayEpoch := uint64(1)
	if r.head != nil {
		name := ds.cfg.snapName(i)
		ops, err := decodeWALOps(r.payload)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot %s: %w", name, err)
		}
		loaded, err := ds.loadShard(i, ops)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot %s: %w", name, err)
		}
		r.stats.SnapshotBootstrapCycles += r.pull.SerialCycles + loaded
		r.stats.SnapshotPairs += len(ops)
		r.stats.ChunksFetched += r.pull.ChunksFetch
		r.stats.CacheHits += r.pull.CacheHits
		replayEpoch = r.head.WALEpoch
		ds.durableEpoch[i] = replayEpoch
		ds.pubSeq[i] = r.head.Seq
	}
	var stale, replay []WALSegment
	for j, s := range segs {
		if j > 0 && s.Epoch <= segs[j-1].Epoch {
			return fmt.Errorf("%w: shard %d segment epochs not ascending (%d after %d)",
				ErrWALCorrupt, i, s.Epoch, segs[j-1].Epoch)
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
			return fmt.Errorf("%w: shard %d missing wal epoch %d (found %d)",
				ErrWALCorrupt, i, want, s.Epoch)
		}
	}
	walName := ds.cfg.walName(i)
	w := NewWAL(ds.walKeys[i], walName, replayEpoch)
	replayed := 0
	for j, s := range replay {
		var batches [][]WALOp
		var err error
		if j == len(replay)-1 {
			// The live segment: a torn tail is the crash point, and the
			// recovered log appends after its last clean record.
			w, batches, err = RecoverWAL(ds.walKeys[i], walName, s.Epoch, s.Bytes)
		} else {
			var prefix int
			batches, prefix, err = DecodeWAL(ds.walKeys[i], walName, s.Epoch, s.Bytes)
			if err == nil && prefix != len(s.Bytes) {
				// A torn tail is only explicable in the segment being
				// appended to when the process died — the live one.
				return fmt.Errorf("%w: shard %d sealed epoch %d torn at byte %d",
					ErrWALCorrupt, i, s.Epoch, prefix)
			}
		}
		if err != nil {
			return fmt.Errorf("kvstore: shard %d epoch %d: %w", i, s.Epoch, err)
		}
		for _, ops := range batches {
			applied, err := ds.applyShardOps(i, ops)
			if err != nil {
				return err
			}
			r.stats.LogReplayCycles += applied
		}
		replayed += len(batches)
	}
	retained := append([]WALSegment(nil), stale...)
	if len(replay) > 1 {
		retained = append(retained, replay[:len(replay)-1]...)
	}
	w.attachSegments(retained)
	ds.wals[i] = w
	// Replayed records are state the next snapshot must pack — a reuse
	// record here would point at a manifest missing the tail.
	ds.dirty[i] = replayed > 0
	r.stats.RecordsReplayed += replayed
	return nil
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
