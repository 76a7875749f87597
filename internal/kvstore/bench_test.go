package kvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"securecloud/internal/cryptbox"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	var k cryptbox.Key
	k[0] = 1
	s, err := NewStore(k, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkPut(b *testing.B) {
	s := benchStore(b)
	val := []byte("reading=1.234;voltage=229.8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("meter-%08d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := benchStore(b)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("meter-%08d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("meter-%08d", i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRange100(b *testing.B) {
	s := benchStore(b)
	for i := 0; i < 10000; i++ {
		if err := s.Put(fmt.Sprintf("k%08d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := fmt.Sprintf("k%08d", (i*100)%9900)
		hi := fmt.Sprintf("k%08d", (i*100)%9900+100)
		if _, err := s.Range(lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALBatches draws n records shaped like durable_write's group
// commit: 16 pairs of 200-byte values spread over 8 shards leave each
// shard's record about 2 ops.
func benchWALBatches(n int) [][]WALOp {
	rng := rand.New(rand.NewSource(1))
	out := make([][]WALOp, n)
	for i := range out {
		ops := make([]WALOp, 2)
		for j := range ops {
			v := make([]byte, 200)
			rng.Read(v)
			ops[j] = WALOp{Key: fmt.Sprintf("key-%06d", rng.Intn(2000)), Value: v}
		}
		out[i] = ops
	}
	return out
}

// BenchmarkWALAppend group-commits one durable_write-shaped record per
// iteration — the write path's per-shard cost.
func BenchmarkWALAppend(b *testing.B) {
	batch := benchWALBatches(1)[0]
	w := NewWAL(walTestKey(b), "wal/bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			// Roll-sized epochs: durable_write's snapshots keep a shard's
			// live log to a few hundred KiB.
			w.Reset(uint64(i/512) + 1)
		}
		if err := w.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWAL authenticates and decodes a 342-record log of
// durable_write-shaped records — the replay count of durable_recover.
func BenchmarkDecodeWAL(b *testing.B) {
	const records = 342
	key := walTestKey(b)
	buf := buildWAL(b, key, "wal/bench", 1, benchWALBatches(records)).Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := DecodeWAL(key, "wal/bench", 1, buf)
		if err != nil || len(got) != records {
			b.Fatalf("decoded %d records: %v", len(got), err)
		}
	}
}

// BenchmarkDurableSnapshotDelta times one incremental Snapshot of an 8-shard
// store of 4 000 keys × 200 B after 10 % of its keys — a hot set, first in
// key order, as in durable_write — were rewritten in place, with the
// shards packed by one worker and by GOMAXPROCS workers.
func BenchmarkDurableSnapshotDelta(b *testing.B) {
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSnapshotDelta(b, workers)
		})
	}
}

func benchSnapshotDelta(b *testing.B, workers int) {
	const keys, hot = 4000, 400
	ds, _ := newDurableFixture(b, 8, workers)
	rng := rand.New(rand.NewSource(1))
	write := func(n int) {
		batch := make([]Pair, n)
		for i := range batch {
			v := make([]byte, 200)
			rng.Read(v)
			batch[i] = Pair{Key: fmt.Sprintf("key-%06d", i), Value: v}
		}
		if err := ds.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	write(keys)
	if _, err := ds.Snapshot(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		write(hot)
		ds.GC()
		b.StartTimer()
		if _, err := ds.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
