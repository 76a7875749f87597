package kvstore

import (
	"bytes"
	"errors"
	"sort"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/shard"
)

// ShardedStoreConfig sizes a sharded secure key/value store.
type ShardedStoreConfig struct {
	// Shards is the number of store shards (0 = GOMAXPROCS). The shard
	// count is a *topology* parameter: it decides where each key lives and
	// therefore every simulated figure. Fix it when comparing runs; vary
	// Workers freely instead.
	Shards int
	// Workers bounds the fan-out of one batch operation across shards
	// (0 = GOMAXPROCS). Purely an execution parameter — simulated totals
	// are identical for any worker count.
	Workers int
	// Seed fixes each shard's skip-list geometry (shard i uses Seed+i).
	Seed int64
	// Accounted builds each shard on its own simulated platform + enclave
	// (shard-per-core), sized ShardBytes, configured by Platform. With
	// Accounted false the shards are plain data structures.
	Accounted  bool
	Platform   enclave.Config
	ShardBytes uint64
}

// ShardedStore is the concurrent form of the secure structured data store:
// keys are partitioned by hash across Shards independent Stores, each
// (when accounted) living in its own enclave on its own simulated platform
// — the shard-per-core deployment where every core owns a slice of the key
// space, as a partitioned storage cluster would across machines.
//
// Writes (Put/Delete and each shard's slice of a PutBatch) lock only their
// home shard. Point reads charge read-only snapshot spans (Store.GetSnapshot)
// under the shard's read lock, so concurrent reads never perturb one
// another's simulated costs. Batch operations fan out across shards through
// a bounded worker set while applying each shard's sub-batch in slice order,
// so aggregate sim-cycles and faults are bit-identical for any interleaving
// and any worker count; only the shard count changes the figures.
type ShardedStore struct {
	*shard.Set[*Store]
}

// NewShardedStore builds the sharded store; every shard seals with key.
func NewShardedStore(key cryptbox.Key, cfg ShardedStoreConfig) (*ShardedStore, error) {
	bytes, err := shard.Bytes(cfg.Accounted, cfg.ShardBytes, "kvstore: accounted sharded store")
	if err != nil {
		return nil, err
	}
	set, err := shard.New(cfg.Shards, cfg.Workers, cfg.Platform, bytes, "kv-shard",
		func(i int, acct Accounting) (*Store, error) {
			return NewStore(key, Options{Seed: cfg.Seed + int64(i), Accounting: acct})
		})
	if err != nil {
		return nil, err
	}
	return &ShardedStore{Set: set}, nil
}

// shardOf maps a key to its home shard index: inlined FNV-1a over the
// string, allocation-free on the batch hot path.
func (ss *ShardedStore) shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(ss.Shards()))
}

// Put stores value under key in its home shard.
func (ss *ShardedStore) Put(key string, value []byte) error {
	sh := ss.At(ss.shardOf(key))
	sh.Lock()
	err := sh.V.Put(key, value)
	sh.Unlock()
	return err
}

// Get returns the value stored under key, charged through a read-only
// snapshot span. Safe for concurrent use with itself and GetBatch;
// Put/Delete serialize against the home shard only.
func (ss *ShardedStore) Get(key string) ([]byte, error) {
	sh := ss.At(ss.shardOf(key))
	sh.RLock()
	v, err := sh.V.GetSnapshot(key)
	sh.RUnlock()
	return v, err
}

// Delete removes key; it reports whether the key existed.
func (ss *ShardedStore) Delete(key string) bool {
	sh := ss.At(ss.shardOf(key))
	sh.Lock()
	ok := sh.V.Delete(key)
	sh.Unlock()
	return ok
}

// PutBatch stores every pair, fanning out across shards. Within one shard
// pairs apply in slice order — later duplicates win, exactly as the
// sequential Store.PutBatch — so the resulting state and each shard's
// simulated costs are independent of the worker count.
func (ss *ShardedStore) PutBatch(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	groups := make([][]Pair, ss.Shards())
	for _, p := range pairs {
		i := ss.shardOf(p.Key)
		groups[i] = append(groups[i], p)
	}
	errs := make([]error, ss.Shards())
	ss.ForEach(func(i int) {
		if len(groups[i]) == 0 {
			return
		}
		sh := ss.At(i)
		sh.Lock()
		errs[i] = sh.V.PutBatch(groups[i])
		sh.Unlock()
	})
	return shard.FirstErr(errs)
}

// GetBatch returns the values of keys, aligned by index, fanning out
// across shards with snapshot reads. Missing keys yield nil entries (no
// error); tampered records fail. Each shard reads its slice of the batch
// in request order under one read-lock hold, so totals are deterministic
// for any worker count.
func (ss *ShardedStore) GetBatch(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	groups := make([][]int, ss.Shards())
	for i, k := range keys {
		s := ss.shardOf(k)
		groups[s] = append(groups[s], i)
	}
	errs := make([]error, ss.Shards())
	ss.ForEach(func(i int) {
		if len(groups[i]) == 0 {
			return
		}
		sh := ss.At(i)
		sh.RLock()
		defer sh.RUnlock()
		for _, idx := range groups[i] {
			v, err := sh.V.GetSnapshot(keys[idx])
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				errs[i] = err
				return
			}
			out[idx] = v
		}
	})
	return out, shard.FirstErr(errs)
}

// Len returns the number of stored records across shards.
func (ss *ShardedStore) Len() int {
	return shard.Read(ss.Set, 0, func(n int, st *Store) int { return n + st.Len() })
}

// Keys returns all keys in global key order.
func (ss *ShardedStore) Keys() []string {
	out := shard.Read(ss.Set, nil, func(out []string, st *Store) []string { return append(out, st.Keys()...) })
	sort.Strings(out)
	return out
}

// Range returns all records with lo <= key < hi in global key order (empty
// hi means "to the end"), scanning shards in parallel and merging. The
// per-shard scan uses the mutating accounting path, so it takes each
// shard's write lock; per-shard costs stay deterministic because each
// shard runs exactly one sequential scan.
func (ss *ShardedStore) Range(lo, hi string) ([]Pair, error) {
	parts := make([][]Pair, ss.Shards())
	errs := make([]error, ss.Shards())
	ss.ForEach(func(i int) {
		sh := ss.At(i)
		sh.Lock()
		parts[i], errs[i] = sh.V.Range(lo, hi)
		sh.Unlock()
	})
	if err := shard.FirstErr(errs); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Pair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// EqualSharded reports whether a sharded store and a plain store hold
// identical records (test helper; decrypts both sides).
func EqualSharded(a *ShardedStore, b *Store) (bool, error) {
	pa, err := a.Range("", "")
	if err != nil {
		return false, err
	}
	pb, err := b.Range("", "")
	if err != nil {
		return false, err
	}
	if len(pa) != len(pb) {
		return false, nil
	}
	for i := range pa {
		if pa[i].Key != pb[i].Key || !bytes.Equal(pa[i].Value, pb[i].Value) {
			return false, nil
		}
	}
	return true, nil
}
