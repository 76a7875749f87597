package enclave

import (
	"sync"
	"testing"

	"securecloud/internal/cryptbox"
)

// snapshotEnclave builds a small enclave on a shrunken platform whose EPC
// holds only part of the ELRANGE, so both resident and evicted pages exist.
func snapshotEnclave(t testing.TB) (*Platform, *Enclave, uint64) {
	t.Helper()
	p := NewPlatform(Config{
		EPCBytes:         1 << 20,
		EPCReservedBytes: 512 << 10,
		LLCBytes:         64 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	})
	var signer cryptbox.Digest
	e, err := p.ECreate(4<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EAdd([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := e.EInit(); err != nil {
		t.Fatal(err)
	}
	return p, e, e.Base() + (8 << 10)
}

// TestSnapshotSpanChargesWithoutMutating: snapshot probes charge cycles and
// faults into the view's ledger but leave every piece of platform state —
// EPC residency, cache contents, CLOCK/LRU metadata — untouched, verified
// by comparing a follow-up mutating access sequence against a twin platform
// that never saw the snapshot.
func TestSnapshotSpanChargesWithoutMutating(t *testing.T) {
	runTwin := func(withSnapshots bool) (afterCost uint64, snapCost uint64, snapFaults uint64) {
		p, e, base := snapshotEnclave(t)
		mem := e.Memory()
		// Deterministic warm-up: stride over half the range.
		accessStride(mem, base, 4096, 256, 64)

		if withSnapshots {
			resBefore := p.EPCResidentPages()
			c0, f0 := uint64(mem.Cycles()), mem.Faults()
			for i := 0; i < 10; i++ {
				sp := mem.BeginSnapshotSpan()
				// Probe a spread of addresses: warm, cold, repeated.
				sp.Access(base, 256)
				sp.Access(base+(3<<20), 256) // far: evicted/cold page
				sp.Access(base+(3<<20), 256) // re-touch: overlay hit
				sp.AccessCPU(base+512, 64, 100)
				sp.End()
			}
			snapCost = uint64(mem.Cycles()) - c0
			snapFaults = mem.Faults() - f0
			if p.EPCResidentPages() != resBefore {
				t.Fatalf("snapshot probes changed EPC residency: %d -> %d",
					resBefore, p.EPCResidentPages())
			}
		}

		// The follow-up mutating sequence must cost the same on both twins.
		c1 := uint64(mem.Cycles())
		accessStride(mem, base, 4096, 512, 64)
		mem.AccessRange(base+(2<<20), 8192, true)
		return uint64(mem.Cycles()) - c1, snapCost, snapFaults
	}

	plainCost, _, _ := runTwin(false)
	snappedCost, snapCost, snapFaults := runTwin(true)
	if plainCost != snappedCost {
		t.Fatalf("snapshot spans perturbed platform state: follow-up cost %d, want %d",
			snappedCost, plainCost)
	}
	if snapCost == 0 {
		t.Fatal("snapshot probes charged nothing")
	}
	if snapFaults == 0 {
		t.Fatal("cold-page snapshot probes charged no faults")
	}
}

// TestSnapshotSpanDeterministicTotals: with mutators excluded, the total
// charged by a set of snapshot spans is independent of how they interleave
// across goroutines.
func TestSnapshotSpanDeterministicTotals(t *testing.T) {
	run := func(workers int) uint64 {
		_, e, base := snapshotEnclave(t)
		mem := e.Memory()
		accessStride(mem, base, 4096, 256, 64)
		mem.ResetAccounting()
		const ops = 64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := w; i < ops; i += workers {
					sp := mem.BeginSnapshotSpan()
					sp.Access(base+uint64(i)*8192, 4096)
					sp.AccessCPU(base, 64, 50)
					sp.End()
				}
			}(w)
		}
		wg.Wait()
		return uint64(mem.Cycles())
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("interleaving changed snapshot totals: %d vs %d", seq, par)
	}
	if seq == 0 {
		t.Fatal("snapshot spans charged nothing")
	}
}
