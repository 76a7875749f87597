package kvstore

import (
	"bytes"
	"sort"

	"securecloud/internal/shard"
)

// Single-key access, key listings, raw WAL views and record-by-record
// comparison: test helpers only, since the product paths are
// PutBatch/GetBatch/Range and WALSegments.

// Keys returns all keys in order (no decryption needed).
func (s *Store) Keys() []string {
	var out []string
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.key)
	}
	return out
}

// Bytes returns a copy of the live tail epoch's log bytes.
func (w *WAL) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf...)
}

// Put stores value under key in its home shard.
func (ss *ShardedStore) Put(key string, value []byte) error {
	sh := ss.At(shard.Of(key, ss.Shards()))
	sh.Lock()
	err := sh.V.Put(key, value)
	sh.Unlock()
	return err
}

// Get returns the value stored under key, charged through a read-only
// snapshot span. Safe for concurrent use with itself and GetBatch; Put
// serializes against the home shard only.
func (ss *ShardedStore) Get(key string) ([]byte, error) {
	sh := ss.At(shard.Of(key, ss.Shards()))
	sh.RLock()
	v, err := sh.V.GetSnapshot(key)
	sh.RUnlock()
	return v, err
}

// Keys returns all keys in global key order.
func (ss *ShardedStore) Keys() []string {
	out := shard.Read(ss.Set, nil, func(out []string, st *Store) []string { return append(out, st.Keys()...) })
	sort.Strings(out)
	return out
}

// Equal reports whether two stores hold identical records (decrypts both
// sides).
func Equal(a, b *Store) (bool, error) {
	pa, err := a.Range("", "")
	if err != nil {
		return false, err
	}
	return equalPairs(pa, b)
}

// EqualSharded reports whether a sharded store and a plain store hold
// identical records (decrypts both sides).
func EqualSharded(a *ShardedStore, b *Store) (bool, error) {
	pa, err := a.Range("", "")
	if err != nil {
		return false, err
	}
	return equalPairs(pa, b)
}

func equalPairs(pa []Pair, b *Store) (bool, error) {
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
