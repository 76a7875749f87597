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
	accessStride(mem, base, 4096, int(span/4096), 64)
	mem.ResetAccounting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.AccessRange(addrs[i&4095], 64, false)
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

// BenchmarkMemoryAccessStride: one span per op touching a line on
// each of 256 pages of a resident 1 MiB region — the bulk warm-up walk.
func BenchmarkMemoryAccessStride(b *testing.B) {
	mem, base := benchEnclave(b, 128<<20, 4<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accessStride(mem, base+uint64(i&63)*64, 4096, 256, 64)
	}
}

// BenchmarkMemoryAccessUntrusted: figure3's outside arm — the untrusted
// view over an AllocUntrusted region, so every access reads the view's
// first-touch table and never faults after the warm-up.
func BenchmarkMemoryAccessUntrusted(b *testing.B) {
	p := NewPlatform(Config{})
	base := p.AllocUntrusted(16 << 20)
	benchAccess(b, p.UntrustedMemory(), base, 16<<20)
}

// BenchmarkMemoryAccessPlatforms: six platforms, each over its own
// resident 4 MiB working set, accessed round-robin one line per op — the
// shape of billing's sharded store, where each platform's LLC metadata
// competes for the host cache.
func BenchmarkMemoryAccessPlatforms(b *testing.B) {
	const platforms, span = 6, 4 << 20
	mems := make([]*Memory, platforms)
	addrs := make([][]uint64, platforms)
	for i := range mems {
		mem, base := benchEnclave(b, 128<<20, 16<<20)
		accessStride(mem, base, 4096, span/4096, 64)
		mem.ResetAccounting()
		mems[i], addrs[i] = mem, benchAddrs(base, span, 4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % platforms
		mems[p].AccessRange(addrs[p][(i/platforms)&4095], 64, false)
	}
}

// BenchmarkMemoryAccessSnapshot: one snapshot span per op of 600
// header-sized probes, each with a containment check's CPU charge, over a
// resident 4 MiB region — the shape of one SCBR MatchSnapshot.
func BenchmarkMemoryAccessSnapshot(b *testing.B) {
	mem, base := benchEnclave(b, 128<<20, 16<<20)
	const span = 4 << 20
	benchSnapshot(b, mem, base, span, benchAddrs(base, span, 4096), 64)
}

// BenchmarkMemoryAccessSnapshotWide: the same span shape as one publish on
// a 40 MB SCBR store — 600 probes of a 192 B subscription header spread
// over a resident 32 MiB region — so, unlike the 4 MiB region above, the
// simulated LLC's metadata for the probed lines does not stay in the host
// cache between spans.
func BenchmarkMemoryAccessSnapshotWide(b *testing.B) {
	const span, size = 32 << 20, 192
	mem, base := benchEnclave(b, 128<<20, 2*span)
	benchSnapshot(b, mem, base, span, benchAddrs(base, span-size, 1<<14), size)
}

// benchSnapshot times one snapshot span per op of 600 probes of size bytes,
// taken in turn from addrs (a power-of-two count), each with a containment
// check's CPU charge, after a warm-up pass that touches every page of
// [base, base+span) once, and reports the EPC faults per span.
func benchSnapshot(b *testing.B, mem *Memory, base, span uint64, addrs []uint64, size int) {
	const probes = 600
	accessStride(mem, base, 4096, int(span/4096), 64)
	mem.ResetAccounting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := mem.BeginSnapshotSpan()
		for j := 0; j < probes; j++ {
			sp.AccessCPU(addrs[(i*probes+j)&(len(addrs)-1)], size, 450)
		}
		sp.End()
	}
	b.ReportMetric(float64(mem.Faults())/float64(b.N), "faults/op")
}

// BenchmarkNewPlatform: building one default platform — the LLC chunk
// directory, the key derivation, no way array and no EPC
// ring — what a durable store recovery pays once per shard, once per
// pulled snapshot set, and once for the recovering node's engine.
func BenchmarkNewPlatform(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewPlatform(Config{})
	}
}
