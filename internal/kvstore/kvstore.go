// Package kvstore implements SecureCloud's "secure structured data store"
// (paper §III-B(3)): an ordered key/value store whose records are sealed
// before they reach untrusted storage, with authenticated snapshots and
// rollback protection via a monotonic store version.
//
// The in-memory structure is a deterministic skip list (seeded, so tests
// replay), giving O(log n) point access and ordered range scans. All
// values are encrypted and authenticated; keys are kept in plaintext
// in memory (inside the enclave) but never leave it unsealed — snapshots
// seal the whole ordered state as one authenticated blob.
package kvstore

import (
	"bytes"
	"encoding/json"
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
	ErrTampered = errors.New("kvstore: snapshot failed authentication")
	ErrRollback = errors.New("kvstore: snapshot older than expected version")
)

type node struct {
	key   string
	value []byte // sealed
	next  []*node
	addr  uint64 // simulated address when accounting is enabled
	bytes int    // simulated footprint (header + key + sealed value + links)
}

// nodeProbeBytes is the simulated cost of inspecting one skip-list node
// during a descent: the header, link pointers and key prefix a comparison
// reads before deciding to advance or drop a level.
const nodeProbeBytes = 64

// Accounting wires a Store to the simulated SGX memory hierarchy. With a
// zero Accounting the store runs as a plain data structure. With Mem and
// Arena set, every node lives at a simulated address and each operation
// charges its traversal through the bulk access API: one batched commit
// per descent instead of one lock round-trip per visited node.
type Accounting = enclave.Accounting

// Store is an ordered, encrypted key/value store. Not safe for concurrent
// use; the owning micro-service serialises access (as the single-threaded
// enclave request loop does).
type Store struct {
	key     cryptbox.Key
	box     *cryptbox.Box
	head    *node
	level   int
	length  int
	rng     *rand.Rand
	version uint64

	acct  Accounting
	probe []uint64 // scratch: node addresses visited by one descent
}

// Options configures a Store; the zero Options is seed 0, no accounting.
type Options struct {
	// Seed fixes the skip-list geometry (topology: same seed, same
	// structure, same simulated charges).
	Seed int64
	// Accounting optionally charges traversals and record I/O to a
	// simulated memory view.
	Accounting Accounting
}

// NewStore builds a store sealing with key, shaped by opts.
func NewStore(key cryptbox.Key, opts Options) (*Store, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	s := &Store{
		key:   key,
		box:   box,
		head:  &node{next: make([]*node, maxLevel)},
		level: 1,
		rng:   sim.NewRand(opts.Seed),
		acct:  opts.Accounting,
	}
	if s.accounted() {
		s.head.bytes = nodeProbeBytes + 8*maxLevel
		s.head.addr = opts.Accounting.Arena.Alloc(s.head.bytes)
	}
	return s, nil
}

func (s *Store) accounted() bool { return s.acct.Enabled() }

// noteProbe records one node inspection for the current descent's batch.
func (s *Store) noteProbe(n *node) {
	if s.accounted() {
		s.probe = append(s.probe, n.addr)
	}
}

// commitProbes charges all node inspections accumulated by one descent as
// a single bulk access.
func (s *Store) commitProbes() {
	if s.accounted() && len(s.probe) > 0 {
		s.acct.Mem.AccessN(s.probe, nodeProbeBytes, false)
	}
	s.probe = s.probe[:0]
}

// nodeFootprint is the simulated size of a node's storage.
func nodeFootprint(n *node) int {
	return nodeProbeBytes + len(n.key) + len(n.value) + 8*len(n.next)
}

// placeNode assigns a simulated address covering the node's full footprint.
func (s *Store) placeNode(n *node) {
	if !s.accounted() {
		return
	}
	n.bytes = nodeFootprint(n)
	n.addr = s.acct.Arena.Alloc(n.bytes)
	s.acct.Mem.AccessRange(n.addr, n.bytes, true)
}

// replaceNodeValue re-places a node whose value changed size: the record is
// rewritten where it stands when it still fits, or relocated when it grew,
// so later reads charge the real footprint.
func (s *Store) replaceNodeValue(n *node) {
	if !s.accounted() {
		return
	}
	size := nodeFootprint(n)
	if size > n.bytes {
		n.addr = s.acct.Arena.Alloc(size)
	}
	n.bytes = size
	s.acct.Mem.AccessRange(n.addr, n.bytes, true)
}

// Len returns the number of stored records.
func (s *Store) Len() int { return s.length }

// Version returns the store's monotonic mutation counter.
func (s *Store) Version() uint64 { return s.version }

func (s *Store) randomLevel() int {
	l := 1
	for l < maxLevel && s.rng.Intn(2) == 0 {
		l++
	}
	return l
}

// findPredecessors fills update[i] with the rightmost node at level i whose
// key precedes k. Every node inspected by a comparison is noted in the
// probe batch; callers charge the whole descent with commitProbes.
func (s *Store) findPredecessors(k string, update []*node) *node {
	cur := s.head
	for i := s.level - 1; i >= 0; i-- {
		for cur.next[i] != nil && cur.next[i].key < k {
			s.noteProbe(cur.next[i])
			cur = cur.next[i]
		}
		if cur.next[i] != nil {
			s.noteProbe(cur.next[i]) // the comparison that stopped the level
		}
		update[i] = cur
	}
	return cur.next[0]
}

// valueAAD binds a sealed value to its key, preventing the storage layer
// from swapping values between keys.
func valueAAD(k string) []byte { return []byte("kv|" + k) }

// Put stores value under key, replacing any existing record.
func (s *Store) Put(key string, value []byte) error {
	sealed, err := s.box.Seal(value, valueAAD(key))
	if err != nil {
		return err
	}
	update := make([]*node, maxLevel)
	cand := s.findPredecessors(key, update)
	s.commitProbes()
	s.version++
	if cand != nil && cand.key == key {
		cand.value = sealed
		s.replaceNodeValue(cand)
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
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.placeNode(n)
	s.chargeLinkWrites(update[:lvl])
	s.length++
	return nil
}

// chargeLinkWrites charges the pointer stores that splice a node in or out:
// one 8-byte write per touched predecessor, committed as a single batch.
func (s *Store) chargeLinkWrites(preds []*node) {
	if !s.accounted() || len(preds) == 0 {
		return
	}
	s.probe = s.probe[:0]
	for _, p := range preds {
		s.probe = append(s.probe, p.addr)
	}
	s.acct.Mem.AccessN(s.probe, 8, true)
	s.probe = s.probe[:0]
}

// descendSnapshot walks to key without touching any store state, collecting
// the simulated addresses a descent would probe into buf (the same node
// sequence findPredecessors notes). It is the read path safe for concurrent
// callers: no scratch slice, no accounting mutation.
func (s *Store) descendSnapshot(key string, buf []uint64) (*node, []uint64) {
	acct := s.accounted()
	cur := s.head
	for i := s.level - 1; i >= 0; i-- {
		for cur.next[i] != nil && cur.next[i].key < key {
			if acct {
				buf = append(buf, cur.next[i].addr)
			}
			cur = cur.next[i]
		}
		if cur.next[i] != nil && acct {
			buf = append(buf, cur.next[i].addr) // the comparison that stopped the level
		}
	}
	return cur.next[0], buf
}

// GetSnapshot is Get charged through a read-only snapshot accounting span:
// the descent's probes consult — but never mutate — the platform's cache
// and residency state, so concurrent GetSnapshot calls on one store charge
// the same totals under any interleaving. Callers must guarantee no
// mutating operation (Put, Delete, Range, plain Get) runs concurrently,
// e.g. by holding the read side of a lock whose write side covers all
// mutators — exactly what ShardedStore does per shard.
func (s *Store) GetSnapshot(key string) ([]byte, error) {
	var probeBuf [2 * maxLevel]uint64
	cand, probes := s.descendSnapshot(key, probeBuf[:0])
	if s.accounted() {
		sp := s.acct.Mem.BeginSnapshotSpan()
		for _, a := range probes {
			sp.Access(a, nodeProbeBytes, false)
		}
		if cand != nil && cand.key == key {
			sp.Access(cand.addr, cand.bytes, false)
		}
		sp.End()
	}
	if cand == nil || cand.key != key {
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
	update := make([]*node, maxLevel)
	cand := s.findPredecessors(key, update)
	s.commitProbes()
	if cand == nil || cand.key != key {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if s.accounted() {
		s.acct.Mem.AccessRange(cand.addr, cand.bytes, false)
	}
	plain, err := s.box.Open(cand.value, valueAAD(key))
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", ErrTampered)
	}
	return plain, nil
}

// Delete removes key; it reports whether the key existed.
func (s *Store) Delete(key string) bool {
	update := make([]*node, maxLevel)
	cand := s.findPredecessors(key, update)
	s.commitProbes()
	if cand == nil || cand.key != key {
		return false
	}
	var relinked []*node
	for i := 0; i < s.level; i++ {
		if update[i].next[i] == cand {
			update[i].next[i] = cand.next[i]
			relinked = append(relinked, update[i])
		}
	}
	s.chargeLinkWrites(relinked)
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.length--
	s.version++
	return true
}

// Pair is one decrypted record.
type Pair struct {
	Key   string
	Value []byte
}

// Range returns all records with lo <= key < hi in key order. An empty hi
// means "to the end". The descent and the level-0 scan are charged as one
// bulk access each; record payload reads are charged per record.
func (s *Store) Range(lo, hi string) ([]Pair, error) {
	var out []Pair
	cur := s.head
	for i := s.level - 1; i >= 0; i-- {
		for cur.next[i] != nil && cur.next[i].key < lo {
			s.noteProbe(cur.next[i])
			cur = cur.next[i]
		}
		if cur.next[i] != nil {
			s.noteProbe(cur.next[i]) // the comparison that stopped the level
		}
	}
	s.commitProbes()
	for n := cur.next[0]; n != nil; n = n.next[0] {
		if hi != "" && n.key >= hi {
			break
		}
		if s.accounted() {
			s.acct.Mem.AccessRange(n.addr, n.bytes, false)
		}
		plain, err := s.box.Open(n.value, valueAAD(n.key))
		if err != nil {
			return nil, fmt.Errorf("kvstore: key %q: %w", n.key, ErrTampered)
		}
		out = append(out, Pair{Key: n.key, Value: plain})
	}
	return out, nil
}

// Keys returns all keys in order (no decryption needed).
func (s *Store) Keys() []string {
	var out []string
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.key)
	}
	return out
}

// snapshot is the serialised store state.
type snapshot struct {
	Version uint64   `json:"version"`
	Keys    []string `json:"keys"`
	Values  [][]byte `json:"values"` // plaintext inside the sealed blob
}

// Snapshot seals the full store state (for persistence to untrusted disk
// or hand-over to a successor enclave). The blob is authenticated and
// carries the store version for rollback checks on load.
func (s *Store) Snapshot() ([]byte, error) {
	snap := snapshot{Version: s.version}
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		plain, err := s.box.Open(n.value, valueAAD(n.key))
		if err != nil {
			return nil, fmt.Errorf("kvstore: key %q: %w", n.key, ErrTampered)
		}
		snap.Keys = append(snap.Keys, n.key)
		snap.Values = append(snap.Values, plain)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	return s.box.Seal(raw, []byte("kv-snapshot"))
}

// Load restores a snapshot into a fresh store. minVersion is the lowest
// acceptable snapshot version (e.g. remembered via the CAS or a monotonic
// counter service); an older snapshot is a rollback attack and is
// rejected.
func Load(key cryptbox.Key, seed int64, blob []byte, minVersion uint64) (*Store, error) {
	s, err := NewStore(key, Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	raw, err := s.box.Open(blob, []byte("kv-snapshot"))
	if err != nil {
		return nil, ErrTampered
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("kvstore: decoding snapshot: %w", err)
	}
	if snap.Version < minVersion {
		return nil, fmt.Errorf("%w: snapshot v%d < expected v%d", ErrRollback, snap.Version, minVersion)
	}
	for i, k := range snap.Keys {
		if err := s.Put(k, snap.Values[i]); err != nil {
			return nil, err
		}
	}
	s.version = snap.Version
	return s, nil
}

// Equal reports whether two stores hold identical records (test helper;
// decrypts both sides).
func Equal(a, b *Store) (bool, error) {
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
