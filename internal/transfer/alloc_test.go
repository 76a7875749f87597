//go:build !race

package transfer

import (
	"io"
	"runtime"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/sim"
)

// TestUnpackAllocationCeiling bounds the host bytes Unpack allocates per
// chunk of a 256 KiB half-random payload at 4 KiB chunks, written to
// io.Discard. Every chunk opens and inflates into buffers reused across
// chunks, so what each chunk still needs is its box (the cipher under its
// own key) and the inflater's per-chunk reader: about 1.7 KB. Opening each
// chunk into a fresh buffer adds about 3.5 KB, the size of its compressed
// bytes; inflating each into a fresh buffer that starts small and doubles
// adds about 16 KB. Built !race: under the race detector sync.Pool drops
// items on purpose, so the flate state is reallocated at random.
func TestUnpackAllocationCeiling(t *testing.T) {
	const chunk = 4 << 10
	data := payload(256 << 10)
	sim.NewRand(3).Read(data[:len(data)/2])
	m, chunks, err := PackConvergent("alloc", data, chunk)
	if err != nil {
		t.Fatal(err)
	}
	unpack := func() {
		if err := Unpack(m, cryptbox.Key{}, io.Discard, func(idx int) ([]byte, error) { return chunks[idx], nil }); err != nil {
			t.Fatal(err)
		}
	}
	unpack() // warm up the flate pools
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		unpack()
	}
	runtime.ReadMemStats(&after)
	perChunk := float64(after.TotalAlloc-before.TotalAlloc) / rounds / float64(m.Chunks())
	t.Logf("Unpack allocates %.0f B per %d B chunk", perChunk, chunk)
	if perChunk > 3<<10 {
		t.Fatalf("Unpack allocates %.0f B per chunk, ceiling %d", perChunk, 3<<10)
	}
}
