package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/shard"
	"securecloud/internal/sim"
)

// smallShardPlatform is the shrunken per-shard platform used by the
// sharded-store tests: tiny EPC and LLC so even modest stores exercise
// faults and evictions.
func smallShardPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         96 * 4096,
		EPCReservedBytes: 16 * 4096,
		LLCBytes:         16 << 10,
		LLCWays:          4,
		LineSize:         64,
		PageSize:         4096,
	}
}

func shardedStore(t testing.TB, shards, workers int, accounted bool) *ShardedStore {
	t.Helper()
	var k cryptbox.Key
	k[0] = 7
	cfg := ShardedStoreConfig{Shards: shards, Workers: workers, Seed: 11}
	if accounted {
		cfg.Accounted = true
		cfg.Platform = smallShardPlatform()
		cfg.ShardBytes = 8 << 20
	}
	ss, err := NewShardedStore(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// workloadPairs builds a deterministic mixed-size workload.
func workloadPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		val := bytes.Repeat([]byte{byte(i)}, 16+(i*37)%240)
		pairs[i] = Pair{Key: fmt.Sprintf("meter-%05d", (i*211)%n), Value: val}
	}
	return pairs
}

// TestShardedStoreMatchesPlain pins ShardedStore ≡ Store: the same
// operation sequence against the sharded store (any shard count) and the
// sequential reference store leaves identical records.
func TestShardedStoreMatchesPlain(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var k cryptbox.Key
			k[0] = 7
			plain, err := NewStore(k, Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			ss := shardedStore(t, shards, 4, true)

			pairs := workloadPairs(500)
			if err := ss.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			if err := plain.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			if err := ss.Put("meter-00003", []byte("overwritten")); err != nil {
				t.Fatal(err)
			}
			if err := plain.Put("meter-00003", []byte("overwritten")); err != nil {
				t.Fatal(err)
			}

			eq, err := EqualSharded(ss, plain)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("sharded store diverged from plain store")
			}
			if ss.Len() != plain.Len() {
				t.Fatalf("Len: sharded %d plain %d", ss.Len(), plain.Len())
			}

			keys := ss.Keys()
			got, err := ss.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("GetBatch[%q]: sharded %q plain %q", keys[i], got[i], want[i])
				}
			}

			ra, err := ss.Range("meter-00010", "meter-00040")
			if err != nil {
				t.Fatal(err)
			}
			rp, err := plain.Range("meter-00010", "meter-00040")
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rp) {
				t.Fatalf("Range: sharded %d records, plain %d", len(ra), len(rp))
			}
			for i := range ra {
				if ra[i].Key != rp[i].Key || !bytes.Equal(ra[i].Value, rp[i].Value) {
					t.Fatalf("Range[%d]: sharded %q plain %q", i, ra[i].Key, rp[i].Key)
				}
			}
		})
	}
}

// TestShardedStoreDeterministicCycles pins the concurrency contract: for a
// fixed shard count (topology), the simulated per-shard cycle and fault
// totals of a batch workload are bit-identical at every worker count
// (execution parallelism) — the kvstore analogue of the sharded SCBR
// matcher's interleaving-independence.
func TestShardedStoreDeterministicCycles(t *testing.T) {
	pairs := workloadPairs(400)
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func(workers int) ([]sim.Cycles, uint64, [][]byte) {
				ss := shardedStore(t, shards, workers, true)
				if err := ss.PutBatch(pairs); err != nil {
					t.Fatal(err)
				}
				got, err := ss.GetBatch(keys)
				if err != nil {
					t.Fatal(err)
				}
				// A second read pass: snapshot reads must not have moved
				// any simulated state, so it charges exactly the same.
				if _, err := ss.GetBatch(keys); err != nil {
					t.Fatal(err)
				}
				return ss.ShardCycles(), ss.Faults(), got
			}
			baseCycles, baseFaults, baseVals := run(1)
			for _, workers := range []int{2, 8} {
				cycles, faults, vals := run(workers)
				for i := range cycles {
					if cycles[i] != baseCycles[i] {
						t.Fatalf("workers=%d shard %d cycles %d, want %d (workers=1)",
							workers, i, cycles[i], baseCycles[i])
					}
				}
				if faults != baseFaults {
					t.Fatalf("workers=%d faults %d, want %d", workers, faults, baseFaults)
				}
				for i := range vals {
					if !bytes.Equal(vals[i], baseVals[i]) {
						t.Fatalf("workers=%d value[%d] differs", workers, i)
					}
				}
			}
		})
	}
}

// TestSnapshotGetFreezesState pins the snapshot-read guarantee on the
// plain store: GetSnapshot charges cycles but leaves every subsequent
// operation's costs untouched, and repeated snapshot reads of the same key
// charge identical amounts.
func TestSnapshotGetFreezesState(t *testing.T) {
	s, mem := accountedStore(t)
	for i := 0; i < 300; i++ {
		if err := s.Put(fmt.Sprintf("k%04d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	mem.ResetAccounting()
	v1, err := s.GetSnapshot("k0123")
	if err != nil {
		t.Fatal(err)
	}
	c1 := mem.Cycles()
	if c1 == 0 {
		t.Fatal("snapshot read charged no cycles")
	}
	v2, err := s.GetSnapshot("k0123")
	if err != nil {
		t.Fatal(err)
	}
	c2 := mem.Cycles() - c1
	if c2 != c1 {
		t.Fatalf("repeated snapshot read charged %d cycles, first charged %d", c2, c1)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatal("snapshot reads disagreed")
	}
	if _, err := s.GetSnapshot("missing"); err == nil {
		t.Fatal("snapshot read of missing key succeeded")
	}
}

// TestPutBatchEmpty covers the empty-batch edge: no-ops, no errors, no
// cycles charged.
func TestPutBatchEmpty(t *testing.T) {
	ss := shardedStore(t, 4, 2, true)
	ss.ResetAccounting()
	if err := ss.PutBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutBatch([]Pair{}); err != nil {
		t.Fatal(err)
	}
	got, err := ss.GetBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty GetBatch returned %d entries", len(got))
	}
	if ss.Cycles() != 0 {
		t.Fatalf("empty batches charged %d cycles", ss.Cycles())
	}
	if ss.Len() != 0 {
		t.Fatal("empty batch changed the store")
	}
}

// TestPutBatchDuplicateKeys pins in-batch duplicate semantics: later
// entries win, exactly as sequential Puts would.
func TestPutBatchDuplicateKeys(t *testing.T) {
	ss := shardedStore(t, 4, 4, false)
	batch := []Pair{
		{Key: "dup", Value: []byte("first")},
		{Key: "other", Value: []byte("x")},
		{Key: "dup", Value: []byte("second")},
		{Key: "dup", Value: []byte("third")},
	}
	if err := ss.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	v, err := ss.Get("dup")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "third" {
		t.Fatalf("duplicate key resolved to %q, want %q", v, "third")
	}
	if ss.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ss.Len())
	}
	got, err := ss.GetBatch([]string{"dup", "missing", "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "third" || got[1] != nil || string(got[2]) != "third" {
		t.Fatalf("GetBatch with duplicates = %q", got)
	}
}

// TestGetBatchCrossShardOrdering pins cross-shard ordering determinism:
// results align with the request order however keys scatter across shards,
// and reversing the batch yields the reversed result.
func TestGetBatchCrossShardOrdering(t *testing.T) {
	ss := shardedStore(t, 8, 3, false)
	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := ss.Put(keys[i], []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ss.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if string(got[i]) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("got[%d] = %q, want val-%03d", i, got[i], i)
		}
	}
	rev := make([]string, n)
	for i := range rev {
		rev[i] = keys[n-1-i]
	}
	gotRev, err := ss.GetBatch(rev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rev {
		if !bytes.Equal(gotRev[i], got[n-1-i]) {
			t.Fatalf("reversed batch misaligned at %d", i)
		}
	}
}

// TestShardedStoreConcurrentAccess hammers the store from many goroutines
// (meaningful under -race): concurrent snapshot reads overlapping with
// writers on disjoint key ranges.
func TestShardedStoreConcurrentAccess(t *testing.T) {
	ss := shardedStore(t, 4, 4, true)
	const n = 200
	pairs := workloadPairs(n)
	if err := ss.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	keys := ss.Keys()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := ss.Get(keys[(i*7+r)%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("writer-%d-%04d", w, i)
				if err := ss.Put(key, []byte("w")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ss.Len(); got != n+200 {
		t.Fatalf("Len = %d, want %d", got, n+200)
	}
}

// TestShardedStoreTamperDetected: flipping sealed bytes inside one shard
// surfaces ErrTampered through batch reads.
func TestShardedStoreTamperDetected(t *testing.T) {
	ss := shardedStore(t, 2, 2, false)
	if err := ss.Put("victim", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sh := ss.At(shard.Of("victim", ss.Shards()))
	for n := sh.V.head.next[0]; n != nil; n = n.next[0] {
		if n.key == "victim" {
			n.value[len(n.value)-1] ^= 1
		}
	}
	if _, err := ss.Get("victim"); err == nil {
		t.Fatal("tampered record decrypted")
	}
	if _, err := ss.GetBatch([]string{"victim"}); err == nil {
		t.Fatal("tampered record passed GetBatch")
	}
}

// rangeBySort is the Range the k-way merge replaced, kept as the reference
// model: every shard's scan concatenated, then sorted.
func rangeBySort(t *testing.T, ss *ShardedStore, lo, hi string) []Pair {
	t.Helper()
	var out []Pair
	for i := 0; i < ss.Shards(); i++ {
		part, err := ss.At(i).V.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, part...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestShardedRangeAgainstSort pins the merged Range to the sort it
// replaced across shard counts, bounds, empty ranges and empty shards.
func TestShardedRangeAgainstSort(t *testing.T) {
	bounds := [][2]string{
		{"", ""}, {"meter-00010", "meter-00040"}, {"meter-00100", ""},
		{"", "meter-00003"}, {"meter-00050", "meter-00050"}, {"zzz", ""},
	}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 2, 300} { // 2 keys leave most shards empty
			ss := shardedStore(t, shards, 2, false)
			if err := ss.PutBatch(workloadPairs(n)); err != nil {
				t.Fatal(err)
			}
			for _, b := range bounds {
				got, err := ss.Range(b[0], b[1])
				if err != nil {
					t.Fatal(err)
				}
				want := rangeBySort(t, ss, b[0], b[1])
				if len(got) != len(want) {
					t.Fatalf("shards=%d n=%d [%q,%q): %d records, reference %d", shards, n, b[0], b[1], len(got), len(want))
				}
				for i := range got {
					if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
						t.Fatalf("shards=%d n=%d [%q,%q) record %d: %q, reference %q", shards, n, b[0], b[1], i, got[i].Key, want[i].Key)
					}
				}
			}
		}
	}
}

// BenchmarkShardedRange is billing_job's scan at the layer: a full Range
// over 4 accounted shards holding 4 800 readings.
func BenchmarkShardedRange(b *testing.B) {
	var k cryptbox.Key
	ss, err := NewShardedStore(k, ShardedStoreConfig{Shards: 4, Seed: 1, Accounted: true, ShardBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	batch := make([]Pair, 0, 4800)
	for m := 0; m < 50; m++ {
		for tick := 0; tick < 96; tick++ {
			batch = append(batch, Pair{Key: fmt.Sprintf("feeder-%03d|meter-%04d|%02d", m/10, m, tick), Value: []byte("8 bytes!")})
		}
	}
	if err := ss.PutBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Range("", ""); err != nil {
			b.Fatal(err)
		}
	}
}
