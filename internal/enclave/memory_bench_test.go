package enclave

import (
	"testing"

	"securecloud/internal/sim"
)

// benchEnclave builds an initialized enclave of size bytes on a platform
// with epcBytes of EPC (a quarter reserved), and returns its memory view
// plus the heap base.
func benchEnclave(b *testing.B, epcBytes, size uint64) (*Memory, uint64) {
	b.Helper()
	enc, arena, err := NewWorker(Config{EPCBytes: epcBytes, EPCReservedBytes: epcBytes / 4}, size, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return enc.Memory(), arena.Alloc(int(size / 2))
}

// benchAddrs returns n seeded line-aligned addresses within [base, base+span).
func benchAddrs(base, span uint64, n int) []uint64 {
	r := sim.NewRand(1)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = base + uint64(r.Int63n(int64(span/64)))*64
	}
	return addrs
}

// benchAccess times one single-line Access per op over a seeded address
// mix, after a warm-up pass that touches every page once, and reports
// the EPC faults per access.
func benchAccess(b *testing.B, mem *Memory, base, span uint64) {
	addrs := benchAddrs(base, span, 4096)
	mem.AccessStride(base, 4096, int(span/4096), 64, false)
	mem.ResetAccounting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Access(addrs[i&4095], 64, false)
	}
	b.ReportMetric(float64(mem.Faults())/float64(b.N), "faults/op")
}

// BenchmarkMemoryAccessResident: a 4 MiB working set inside a 93 MiB EPC —
// LLC hits and MEE fills, never an EPC fault.
func BenchmarkMemoryAccessResident(b *testing.B) {
	mem, base := benchEnclave(b, 128<<20, 16<<20)
	benchAccess(b, mem, base, 4<<20)
}

// BenchmarkMemoryAccessPaging: a 6 MiB working set over 3 MiB of usable
// EPC, so most accesses take an EPC fault and evict a victim page.
func BenchmarkMemoryAccessPaging(b *testing.B) {
	mem, base := benchEnclave(b, 4<<20, 16<<20)
	benchAccess(b, mem, base, 6<<20)
}

// BenchmarkMemoryAccessStride: one AccessStride per op touching a line on
// each of 256 pages of a resident 1 MiB region — the bulk warm-up walk.
func BenchmarkMemoryAccessStride(b *testing.B) {
	mem, base := benchEnclave(b, 128<<20, 4<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.AccessStride(base+uint64(i&63)*64, 4096, 256, 64, false)
	}
}
