// Package kvstore implements SecureCloud's "secure structured data store"
// (paper §III-B(3)): an ordered key/value store whose records are sealed
// before they reach untrusted storage.
//
// The in-memory structure is a deterministic skip list (seeded, so tests
// replay), giving O(log n) point access and ordered range scans. All
// values are encrypted and authenticated; keys are kept in plaintext
// in memory (inside the enclave). ShardedStore partitions keys across
// per-core Stores; DurableStore adds the sealed per-shard write-ahead log
// and the incremental, content-addressed snapshot chain that make the
// store survive the process, with rollback and splice protection from
// the sequence numbers bound into each sealed snapshot record.
package kvstore

import (
	"errors"
	"fmt"
	"math/rand"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

const maxLevel = 16

// Errors returned by the store.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrTampered = errors.New("kvstore: record failed authentication")
)

type node struct {
	key   string
	value []byte // sealed
	next  []*node
	addr  uint64 // simulated address; 0 in an unaccounted store
	bytes int    // simulated footprint (header + key + sealed value + links)
}

// nodeProbeBytes is the simulated cost of inspecting one skip-list node
// during a descent: the header, link pointers and key prefix a comparison
// reads before deciding to advance or drop a level.
const nodeProbeBytes = 64

// Store is an ordered, encrypted key/value store. Not safe for concurrent
// use; the owning micro-service serialises access (as the single-threaded
// enclave request loop does).
type Store struct {
	box    *cryptbox.Box
	head   *node
	level  int
	length int
	rng    *rand.Rand

	arena *enclave.Arena // nil when unaccounted
	aad   []byte         // scratch: the value AAD of the record being sealed or opened
}

// Options configures a Store; the zero Options is seed 0, no accounting.
type Options struct {
	// Seed fixes the skip-list geometry (topology: same seed, same
	// structure, same simulated charges).
	Seed int64
	// Arena optionally wires the store to the simulated SGX memory
	// hierarchy: every node lives at an address from it, and each
	// operation charges its whole traversal to the arena's memory view
	// through one span — one batched commit per operation instead of one
	// lock round-trip per visited node. A nil Arena leaves the store a
	// plain data structure: its addresses are 0 and its spans nil, so
	// nothing is charged.
	Arena *enclave.Arena
}

// NewStore builds a store sealing with key, shaped by opts.
func NewStore(key cryptbox.Key, opts Options) (*Store, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	s := &Store{
		box:   box,
		head:  &node{next: make([]*node, maxLevel), bytes: nodeProbeBytes + 8*maxLevel},
		level: 1,
		rng:   sim.NewRand(opts.Seed),
		arena: opts.Arena,
	}
	s.head.addr = s.arena.Alloc(s.head.bytes)
	return s, nil
}

// nodeFootprint is the simulated size of a node's storage.
func nodeFootprint(n *node) int {
	return nodeProbeBytes + len(n.key) + len(n.value) + 8*len(n.next)
}

// placeNode assigns a simulated address covering the node's full footprint
// and charges its write to sp.
func (s *Store) placeNode(sp *enclave.Span, n *node) {
	n.bytes = nodeFootprint(n)
	n.addr = s.arena.Alloc(n.bytes)
	sp.Access(n.addr, n.bytes)
}

// replaceNodeValue re-places a node whose value changed size: the record is
// rewritten where it stands when it still fits, or relocated when it grew,
// so later reads charge the real footprint.
func (s *Store) replaceNodeValue(sp *enclave.Span, n *node) {
	size := nodeFootprint(n)
	if size > n.bytes {
		n.addr = s.arena.Alloc(size)
	}
	n.bytes = size
	sp.Access(n.addr, n.bytes)
}

// Len returns the number of stored records.
func (s *Store) Len() int { return s.length }

func (s *Store) randomLevel() int {
	l := 1
	for l < maxLevel && s.rng.Intn(2) == 0 {
		l++
	}
	return l
}

// descend walks to the first node whose key is not below k and returns it.
// When update is non-nil it fills update[i] with the rightmost node at
// level i whose key precedes k. Every node a comparison inspects is charged
// to sp, in descent order. It touches no store state, so concurrent readers
// may share it, each with its own snapshot span.
func (s *Store) descend(sp *enclave.Span, k string, update []*node) *node {
	cur := s.head
	for i := s.level - 1; i >= 0; i-- {
		for cur.next[i] != nil && cur.next[i].key < k {
			sp.Access(cur.next[i].addr, nodeProbeBytes)
			cur = cur.next[i]
		}
		if cur.next[i] != nil {
			sp.Access(cur.next[i].addr, nodeProbeBytes) // the comparison that stopped the level
		}
		if update != nil {
			update[i] = cur
		}
	}
	return cur.next[0]
}

// valueAAD binds a sealed value to its key, preventing the storage layer
// from swapping values between keys.
func valueAAD(k string) []byte { return []byte("kv|" + k) }

// scratchAAD is valueAAD built in the store's scratch buffer, for the
// paths that hold the store exclusively (Put, Get, Range); GetSnapshot
// runs beside other readers and builds its own. The result is valid until
// the next call.
func (s *Store) scratchAAD(k string) []byte {
	s.aad = append(append(s.aad[:0], "kv|"...), k...)
	return s.aad
}

// Put stores value under key, replacing any existing record.
func (s *Store) Put(key string, value []byte) error {
	sealed, err := s.box.Seal(value, s.scratchAAD(key))
	if err != nil {
		return err
	}
	sp := s.arena.Memory().BeginSpan()
	defer sp.End()
	var update [maxLevel]*node
	cand := s.descend(sp, key, update[:])
	if cand != nil && cand.key == key {
		cand.value = sealed
		s.replaceNodeValue(sp, cand)
		return nil
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &node{key: key, value: sealed, next: make([]*node, lvl)}
	s.placeNode(sp, n)
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
		sp.Access(update[i].addr, 8) // the predecessor's link store
	}
	s.length++
	return nil
}

// load fills an empty store from ops, whose keys must ascend strictly: a
// snapshot's table, read in key order. It builds the skip list the Put
// loop would, node for node — one randomLevel and one placeNode per record
// in the same order, and the same predecessor link stores, so levels,
// simulated addresses and footprints all match — but appends each record
// behind per-level tail pointers instead of descending from the head, so
// no descent probe is charged. Values are sealed as Put seals them, and
// the whole load is charged to one span. A non-empty store, or a key not
// above the one before it, is refused before anything is stored.
func (s *Store) load(ops []WALOp) error {
	if s.length > 0 {
		return fmt.Errorf("kvstore: bulk load into a store of %d records", s.length)
	}
	for j := 1; j < len(ops); j++ {
		if ops[j].Key <= ops[j-1].Key {
			return fmt.Errorf("kvstore: bulk load key %q after %q: keys must ascend strictly", ops[j].Key, ops[j-1].Key)
		}
	}
	sp := s.arena.Memory().BeginSpan()
	defer sp.End()
	var tail [maxLevel]*node
	for i := range tail {
		tail[i] = s.head
	}
	for _, op := range ops {
		sealed, err := s.box.Seal(op.Value, s.scratchAAD(op.Key))
		if err != nil {
			return err
		}
		lvl := s.randomLevel()
		s.level = max(s.level, lvl)
		n := &node{key: op.Key, value: sealed, next: make([]*node, lvl)}
		s.placeNode(sp, n)
		for i := 0; i < lvl; i++ {
			tail[i].next[i] = n
			sp.Access(tail[i].addr, 8) // the predecessor's link store
			tail[i] = n
		}
		s.length++
	}
	return nil
}

// GetSnapshot is Get charged through a read-only snapshot accounting span:
// the descent's probes consult — but never mutate — the platform's cache
// and residency state, so concurrent GetSnapshot calls on one store charge
// the same totals under any interleaving. Callers must guarantee no
// mutating operation (Put, Range, plain Get) runs concurrently,
// e.g. by holding the read side of a lock whose write side covers all
// mutators — exactly what ShardedStore does per shard.
func (s *Store) GetSnapshot(key string) ([]byte, error) {
	sp := s.arena.Memory().BeginSnapshotSpan()
	cand := s.descend(sp, key, nil)
	found := cand != nil && cand.key == key
	if found {
		sp.Access(cand.addr, cand.bytes)
	}
	sp.End()
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	plain, err := s.box.Open(cand.value, valueAAD(key))
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", ErrTampered)
	}
	return plain, nil
}

// PutBatch stores every pair in slice order (later duplicates win), the
// sequential reference for ShardedStore.PutBatch.
func (s *Store) PutBatch(pairs []Pair) error {
	for _, p := range pairs {
		if err := s.Put(p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// GetBatch returns the values of keys, aligned by index. Missing keys
// yield nil entries rather than an error, so a batch over a partially
// populated key set is a total function; tampered records still fail.
func (s *Store) GetBatch(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	sp := s.arena.Memory().BeginSpan()
	cand := s.descend(sp, key, nil)
	found := cand != nil && cand.key == key
	if found {
		sp.Access(cand.addr, cand.bytes)
	}
	sp.End()
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	plain, err := s.box.Open(cand.value, s.scratchAAD(key))
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", ErrTampered)
	}
	return plain, nil
}

// Pair is one decrypted record.
type Pair struct {
	Key   string
	Value []byte
}

// Range returns all records with lo <= key < hi in key order. An empty hi
// means "to the end". The descent and every record read are charged to
// one span. It stays open across the record opens, holding the platform
// mutex: every accounted Store owns its own platform (shard.New builds one
// per shard), so no other structure's charges wait on it.
func (s *Store) Range(lo, hi string) ([]Pair, error) {
	sp := s.arena.Memory().BeginSpan()
	defer sp.End()
	var out []Pair
	for n := s.descend(sp, lo, nil); n != nil; n = n.next[0] {
		if hi != "" && n.key >= hi {
			break
		}
		sp.Access(n.addr, n.bytes)
		plain, err := s.box.Open(n.value, s.scratchAAD(n.key))
		if err != nil {
			return nil, fmt.Errorf("kvstore: key %q: %w", n.key, ErrTampered)
		}
		out = append(out, Pair{Key: n.key, Value: plain})
	}
	return out, nil
}
