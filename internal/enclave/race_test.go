package enclave

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMemoryViews hammers one platform from several goroutines —
// two enclave views, two untrusted views, plus readers and resetters — so
// `go test -race ./internal/enclave` exercises the whole accounting path:
// batched Access commits, bulk AccessN/AccessStride, fault counting, ledger
// snapshots and the single-lock reset discipline.
func TestConcurrentMemoryViews(t *testing.T) {
	p := smallPlatform()
	encs := make([]*Enclave, 2)
	arenas := make([]*Arena, 2)
	for i := range encs {
		e := buildEnclave(t, p, 1<<20, []byte(fmt.Sprintf("enc-%d", i)))
		a, err := e.HeapArena()
		if err != nil {
			t.Fatal(err)
		}
		encs[i], arenas[i] = e, a
	}
	untr := make([]*Memory, 2)
	bases := make([]uint64, 2)
	for i := range untr {
		untr[i] = p.UntrustedMemory()
		bases[i] = p.AllocUntrusted(1 << 20)
	}

	const iters = 300
	var wg sync.WaitGroup

	// Enclave writers: single, scattered and strided accesses.
	for i, e := range encs {
		wg.Add(1)
		go func(i int, e *Enclave, base uint64) {
			defer wg.Done()
			mem := e.Memory()
			addrs := make([]uint64, 8)
			for j := 0; j < iters; j++ {
				mem.Access(base+uint64(j%4096)*64, 128, j%2 == 0)
				for k := range addrs {
					addrs[k] = base + uint64((j+k*37)%8192)*32
				}
				mem.AccessN(addrs, 16, false)
				mem.AccessStride(base, 4096, 4, 8, true)
				mem.ChargeCPU(5)
			}
		}(i, e, arenas[i].Alloc(512<<10))
	}

	// Untrusted writers.
	for i, m := range untr {
		wg.Add(1)
		go func(m *Memory, base uint64) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				m.Access(base+uint64(j%2048)*64, 64, true)
			}
		}(m, bases[i])
	}

	// Readers: snapshots, totals, fault counts, platform stats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			for _, e := range encs {
				_ = e.Memory().Cycles()
				_ = e.Memory().Faults()
				_ = e.Memory().Breakdown()
				_ = e.AEXCount()
			}
			_ = p.EPCResidentPages()
		}
	}()

	// Resetter: the torn-half-reset regression this test guards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters/10; j++ {
			encs[0].Memory().ResetAccounting()
		}
	}()

	wg.Wait()

	// After the dust settles the ledgers must be internally consistent:
	// enclave 1 was never reset, so its total must equal the sum of its
	// per-cause costs.
	bd := encs[1].Memory().Breakdown()
	var sum uint64
	for _, v := range bd {
		sum += uint64(v)
	}
	if total := uint64(encs[1].Memory().Cycles()); total != sum {
		t.Fatalf("ledger inconsistent after concurrency: total %d, per-cause sum %d", total, sum)
	}
}

// TestConcurrentTransitions exercises EEnter/EExit/OCall/Interrupt next to
// Access traffic under -race.
func TestConcurrentTransitions(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("trans"))
	a, err := e.HeapArena()
	if err != nil {
		t.Fatal(err)
	}
	base := a.Alloc(64 << 10)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := e.EEnter(); err != nil {
				t.Error(err)
				return
			}
			e.OCall()
			if err := e.EExit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.Interrupt()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.Memory().Access(base+uint64(i%512)*64, 8, false)
		}
	}()
	wg.Wait()
	if e.AEXCount() == 0 {
		t.Fatal("no AEX recorded")
	}
}
