package kvstore

import (
	"fmt"
	"math/rand"
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

func BenchmarkTableLookup(b *testing.B) {
	s := benchStore(b)
	tbl, err := NewTable(s, "m", Schema{Columns: []string{"id", "feeder"}}, "feeder")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := tbl.Insert(Row{"id": fmt.Sprintf("m%05d", i), "feeder": fmt.Sprintf("f%03d", i%100)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Lookup("feeder", fmt.Sprintf("f%03d", i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend group-commits one batch of 16 ops × 200 B random values
// per iteration — the write path's per-shard cost in durable_write.
func BenchmarkWALAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := make([]WALOp, 16)
	for i := range batch {
		v := make([]byte, 200)
		rng.Read(v)
		batch[i] = WALOp{Key: fmt.Sprintf("key-%06d", i), Value: v}
	}
	w := NewWAL(walTestKey(b), "wal/bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			// Roll-sized epochs: durable_write's snapshots keep a shard's
			// live log to a few hundred KiB.
			w.Reset(uint64(i/64) + 1)
		}
		if err := w.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableSnapshotDelta times one incremental Snapshot of an 8-shard
// store of 4 000 keys × 200 B after 10 % of its keys — a hot set, first in
// key order, as in durable_write — were rewritten in place.
func BenchmarkDurableSnapshotDelta(b *testing.B) {
	const keys, hot = 4000, 400
	ds, _ := newDurableFixture(b, 8, 1)
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
