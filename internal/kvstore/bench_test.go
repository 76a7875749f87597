package kvstore

import (
	"fmt"
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
