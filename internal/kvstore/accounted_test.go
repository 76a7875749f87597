package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// accountedStore builds a store charging into a fresh enclave view.
func accountedStore(t *testing.T) (*Store, *enclave.Memory) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	enc, err := p.ECreate(32<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("kv")); err != nil {
		t.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		t.Fatal(err)
	}
	arena, err := enc.HeapArena()
	if err != nil {
		t.Fatal(err)
	}
	var k cryptbox.Key
	k[0] = 7
	s, err := NewStore(k, Options{Seed: 1, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	return s, enc.Memory()
}

func TestAccountedStoreChargesTraversals(t *testing.T) {
	s, mem := accountedStore(t)
	mem.ResetAccounting()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("meter-%04d", i), []byte("1.21 kW")); err != nil {
			t.Fatal(err)
		}
	}
	afterPut := mem.Cycles()
	if afterPut == 0 {
		t.Fatal("accounted Put charged no cycles")
	}
	if _, err := s.Get("meter-0100"); err != nil {
		t.Fatal(err)
	}
	if mem.Cycles() == afterPut {
		t.Fatal("accounted Get charged no cycles")
	}
}

func TestAccountedStoreBehavesLikePlain(t *testing.T) {
	acc, _ := accountedStore(t)
	var k cryptbox.Key
	k[0] = 7
	plain, err := NewStore(k, Options{Seed: 1}) // same seed: identical skip-list geometry
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", (i*37)%100)
		val := []byte(fmt.Sprintf("v%d", i))
		if err := acc.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := plain.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	eq, err := Equal(acc, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("accounted store diverged from plain store")
	}
	ra, err := acc.Range("k010", "k020")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Range("k010", "k020")
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rp) {
		t.Fatalf("accounted Range returned %d records, plain %d", len(ra), len(rp))
	}
}

// smallEPCStore builds an accounted store on a 48-usable-page EPC, so a
// store of a few hundred KiB pages and faults.
func smallEPCStore(t *testing.T) (*Store, *enclave.Memory) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{
		EPCBytes:         64 * 4096,
		EPCReservedBytes: 16 * 4096,
		LLCBytes:         16 << 10,
		LLCWays:          4,
		LineSize:         64,
		PageSize:         4096,
	})
	var signer cryptbox.Digest
	enc, err := p.ECreate(4<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("kv")); err != nil {
		t.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		t.Fatal(err)
	}
	arena, _ := enc.HeapArena()
	var k cryptbox.Key
	s, err := NewStore(k, Options{Seed: 1, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	return s, enc.Memory()
}

func TestAccountedStoreFaultsBeyondEPC(t *testing.T) {
	// A store bigger than the EPC must incur EPC faults on access, the
	// kvstore analogue of the paper's Figure 3 regime change.
	s, mem := smallEPCStore(t)
	big := make([]byte, 2048)
	for i := 0; i < 700; i++ { // ~1.4 MB of records >> 48-page EPC
		if err := s.Put(fmt.Sprintf("key-%04d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	mem.ResetAccounting()
	for i := 0; i < 700; i += 7 {
		if _, err := s.Get(fmt.Sprintf("key-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Faults() == 0 {
		t.Fatal("no EPC faults despite store exceeding the EPC")
	}
}

// TestAccountedStorePinnedCharges pins the exact cycles and EPC faults a
// seeded Put/Get/GetSnapshot/Range script charges on a paging store,
// phase by phase. No bench-gate key reaches an accounted Get, so this is
// what catches a descent that charges a different probe sequence.
func TestAccountedStorePinnedCharges(t *testing.T) {
	s, mem := smallEPCStore(t)
	rng := sim.NewRand(38)
	key := func() string { return fmt.Sprintf("key-%04d", rng.Intn(600)) }
	type charge struct {
		cycles sim.Cycles
		faults uint64
	}
	phases := []struct {
		name string
		run  func()
		want charge
	}{
		{"put", func() {
			for i := 0; i < 400; i++ {
				if err := s.Put(key(), make([]byte, 256+rng.Intn(1792))); err != nil {
					t.Fatal(err)
				}
			}
		}, charge{70645780, 560}},
		{"get", func() {
			for i := 0; i < 150; i++ {
				if _, err := s.Get(key()); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
		}, charge{63078760, 518}},
		{"get-snapshot", func() {
			for i := 0; i < 100; i++ {
				if _, err := s.GetSnapshot(key()); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
		}, charge{31530960, 258}},
		{"range", func() {
			for i := 0; i < 10; i++ {
				lo := key()
				if _, err := s.Range(lo, lo+"~"); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Range(key(), ""); err != nil {
					t.Fatal(err)
				}
			}
		}, charge{162352920, 1274}},
	}
	for _, ph := range phases {
		mem.ResetAccounting()
		ph.run()
		if got := (charge{mem.Cycles(), mem.Faults()}); got != ph.want {
			t.Errorf("%s: charged %d cycles, %d faults; want %d, %d",
				ph.name, got.cycles, got.faults, ph.want.cycles, ph.want.faults)
		}
	}
}

// TestLoadMatchesPuts: under one seed, bulk-loading a shard's sorted table
// builds the skip list the Put loop builds from the same records in the
// same order — node by node the same key, level, simulated address and
// footprint, the same values and the same state digest — and charges
// less, since no descent is probed.
func TestLoadMatchesPuts(t *testing.T) {
	const shards = 4
	var key cryptbox.Key
	key[0] = 9
	rng := rand.New(rand.NewSource(4))
	pairs := make([]Pair, 400)
	for i := range pairs {
		v := make([]byte, rng.Intn(96))
		rng.Read(v)
		pairs[i] = Pair{Key: fmt.Sprintf("meter-%05d", i*7), Value: v}
	}
	build := func() *ShardedStore {
		ss, err := NewShardedStore(key, ShardedStoreConfig{Shards: shards, Seed: 3, Accounted: true, ShardBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	put, loaded := build(), build()
	if err := put.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	for i, g := range groupPairs(pairs, shards) {
		ops := make([]WALOp, len(g))
		for j, p := range g {
			ops[j] = WALOp{Key: p.Key, Value: p.Value}
		}
		if err := loaded.At(i).V.load(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < shards; i++ {
		a, b := put.At(i).V, loaded.At(i).V
		if a.level != b.level || a.length != b.length || a.head.addr != b.head.addr {
			t.Fatalf("shard %d: level %d/%d, length %d/%d, head %#x/%#x",
				i, a.level, b.level, a.length, b.length, a.head.addr, b.head.addr)
		}
		na, nb := a.head.next[0], b.head.next[0]
		for ; na != nil && nb != nil; na, nb = na.next[0], nb.next[0] {
			if na.key != nb.key || len(na.next) != len(nb.next) || na.addr != nb.addr || na.bytes != nb.bytes {
				t.Fatalf("shard %d: put node %q level %d at %#x (%d B), loaded node %q level %d at %#x (%d B)",
					i, na.key, len(na.next), na.addr, na.bytes, nb.key, len(nb.next), nb.addr, nb.bytes)
			}
			for lvl := range na.next {
				if (na.next[lvl] == nil) != (nb.next[lvl] == nil) || na.next[lvl] != nil && na.next[lvl].key != nb.next[lvl].key {
					t.Fatalf("shard %d: node %q links differ at level %d", i, na.key, lvl)
				}
			}
		}
		if na != nil || nb != nil {
			t.Fatalf("shard %d: node sequences differ in length", i)
		}
		if eq, err := Equal(a, b); err != nil || !eq {
			t.Fatalf("shard %d: opened values differ (%v)", i, err)
		}
		if pc, lc := put.At(i).Cycles(), loaded.At(i).Cycles(); lc == 0 || lc >= pc {
			t.Fatalf("shard %d: load charged %d cycles, the Put loop %d: want fewer, not none", i, lc, pc)
		}
	}
	dp, err := put.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	dl, err := loaded.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if dp != dl {
		t.Fatal("state digests differ")
	}
}

// TestLoadRefuses: the bulk load fills only an empty store, from keys in
// strictly ascending order; anything else is refused before a record is
// stored.
func TestLoadRefuses(t *testing.T) {
	for name, tc := range map[string]struct {
		held string
		keys []string
	}{
		"non-empty store": {held: "a", keys: []string{"b", "c"}},
		"equal key":       {keys: []string{"a", "b", "b"}},
		"descending key":  {keys: []string{"a", "c", "b"}},
	} {
		s, _ := accountedStore(t)
		if tc.held != "" {
			if err := s.Put(tc.held, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Keys()
		ops := make([]WALOp, len(tc.keys))
		for i, k := range tc.keys {
			ops[i] = WALOp{Key: k, Value: []byte("v")}
		}
		if err := s.load(ops); err == nil {
			t.Fatalf("%s: load accepted %q", name, tc.keys)
		}
		if got := s.Keys(); !slices.Equal(got, before) {
			t.Fatalf("%s: refused load changed the keys from %q to %q", name, before, got)
		}
	}
}
