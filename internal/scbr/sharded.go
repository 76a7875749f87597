package scbr

import (
	"slices"
	"sync/atomic"

	"securecloud/internal/enclave"
	"securecloud/internal/shard"
	"securecloud/internal/sim"
)

// ShardedIndexConfig sizes a sharded containment index.
type ShardedIndexConfig struct {
	// Shards is the number of index shards (0 = GOMAXPROCS). The shard
	// count is a *topology* parameter: it decides where each subscription
	// lives and therefore every simulated figure. Fix it when comparing
	// runs; vary Workers freely instead.
	Shards int
	// Workers bounds the fan-out of one Match across shards
	// (0 = GOMAXPROCS). Purely an execution parameter — totals are
	// identical for any worker count.
	Workers int
	// PayloadBytes and CheckCost parameterise each shard's Index.
	PayloadBytes int
	CheckCost    sim.Cycles
	// Accounted builds each shard on its own simulated platform + enclave
	// (shard-per-core), sized ShardBytes, configured by Platform. With
	// Accounted false the shards are plain data structures.
	Accounted  bool
	Platform   enclave.Config
	ShardBytes uint64
}

// ShardedIndex is the concurrent form of the SCBR subscription store: the
// containment forest is partitioned into Shards independent Indexes keyed
// by subscription ID, each (when accounted) living in its own enclave on
// its own simulated platform — the shard-per-core deployment where every
// core runs one matcher replica against its slice of the filter set, as a
// partitioned broker cluster would across machines.
//
// Writes (Insert/Remove) lock only their shard. Match fans out across all
// shards through a bounded worker set; each per-shard match charges a
// read-only snapshot span under the shard's read lock, so concurrent
// matches never perturb one another's simulated costs: aggregate
// sim-cycles and faults are bit-identical for any interleaving and any
// worker count. Match results merge into ascending subscription-ID order —
// deterministic across runs and across shard counts.
type ShardedIndex struct {
	*shard.Set[*Index]
	// snapChecks accumulates comparison counts from snapshot matches, which
	// cannot write the per-Index counter lock-free.
	snapChecks atomic.Uint64
}

// NewShardedIndex builds the sharded store.
func NewShardedIndex(cfg ShardedIndexConfig) (*ShardedIndex, error) {
	bytes, err := shard.Bytes(cfg.Accounted, cfg.ShardBytes, "scbr: accounted sharded index")
	if err != nil {
		return nil, err
	}
	set, err := shard.New(cfg.Shards, cfg.Workers, cfg.Platform, bytes, "scbr-shard",
		func(_ int, arena *enclave.Arena) (*Index, error) {
			return NewIndex(IndexConfig{
				PayloadBytes: cfg.PayloadBytes, CheckCost: cfg.CheckCost,
				Mem: arena.Memory(), Arena: arena,
			}), nil
		})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{Set: set}, nil
}

// shardFor maps a subscription ID to its home shard.
func (sx *ShardedIndex) shardFor(id uint64) *shard.Shard[*Index] {
	return sx.At(int(id % uint64(sx.Shards())))
}

// Insert registers a subscription in its home shard.
func (sx *ShardedIndex) Insert(s Subscription) {
	sh := sx.shardFor(s.ID)
	sh.Lock()
	sh.V.Insert(s)
	sh.Unlock()
}

// Remove unregisters a subscription, reporting whether it was present.
func (sx *ShardedIndex) Remove(id uint64) bool {
	sh := sx.shardFor(id)
	sh.Lock()
	ok := sh.V.Remove(id)
	sh.Unlock()
	return ok
}

// Match returns the IDs of all subscriptions matching e, in ascending ID
// order, matching every shard in parallel against a read-only snapshot.
// Safe for concurrent use with itself; Insert/Remove serialize against the
// affected shard only.
func (sx *ShardedIndex) Match(e Event) []uint64 {
	parts := make([][]uint64, sx.Shards())
	var checks atomic.Uint64
	sx.ForEach(func(i int) {
		sh := sx.At(i)
		sh.RLock()
		ids, ck := sh.V.MatchSnapshot(e)
		sh.RUnlock()
		parts[i] = ids
		checks.Add(ck)
	})
	sx.snapChecks.Add(checks.Load())
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]uint64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// MatchNaive checks every stored subscription without pruning (reference
// matcher), in ascending ID order. It takes each shard's write lock (the
// naive walk uses the mutating accounting path).
func (sx *ShardedIndex) MatchNaive(e Event) []uint64 {
	var out []uint64
	for i := range sx.Shards() {
		sh := sx.At(i)
		sh.Lock()
		out = append(out, sh.V.MatchNaive(e)...)
		sh.Unlock()
	}
	slices.Sort(out)
	return out
}

// Count returns the number of stored subscriptions.
func (sx *ShardedIndex) Count() int {
	return shard.Read(sx.Set, 0, func(n int, ix *Index) int { return n + ix.Count() })
}

// MemoryBytes returns the total simulated occupancy across shards.
func (sx *ShardedIndex) MemoryBytes() int64 {
	return shard.Read(sx.Set, 0, func(n int64, ix *Index) int64 { return n + ix.MemoryBytes() })
}

// Checks returns the cumulative cover/match comparisons across shards,
// including snapshot matches.
func (sx *ShardedIndex) Checks() uint64 {
	return shard.Read(sx.Set, sx.snapChecks.Load(), func(n uint64, ix *Index) uint64 { return n + ix.Checks() })
}

// Depth returns the maximum forest depth across shards.
func (sx *ShardedIndex) Depth() int {
	return shard.Read(sx.Set, 0, func(d int, ix *Index) int { return max(d, ix.Depth()) })
}

// RootFanout returns the total number of forest roots across shards.
func (sx *ShardedIndex) RootFanout() int {
	return shard.Read(sx.Set, 0, func(n int, ix *Index) int { return n + ix.RootFanout() })
}
