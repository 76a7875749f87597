// Command sgx-probe reports the simulated platform's cost model and runs
// the micro-benchmarks that calibrate it: cache-hit vs DRAM vs MEE access
// cost, EPC fault cost, enclave transition cost, and the resulting
// in/out-of-enclave cost ratios for streaming and random access patterns
// at several working-set sizes. Useful for sanity-checking any cost-model
// change before re-running the paper experiments.
package main

import (
	"flag"
	"fmt"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

func main() {
	flag.Parse()
	cfg := enclave.DefaultConfig()

	fmt.Println("# simulated SGX v1 platform")
	fmt.Printf("EPC            : %d MiB (%d MiB usable after SGX metadata)\n",
		cfg.EPCBytes>>20, (cfg.EPCBytes-cfg.EPCReservedBytes)>>20)
	fmt.Printf("LLC            : %d MiB, %d-way, %d B lines\n", cfg.LLCBytes>>20, cfg.LLCWays, cfg.LineSize)
	fmt.Printf("page size      : %d B\n", cfg.PageSize)
	fmt.Println("\n# cost model (cycles)")
	fmt.Printf("LLC hit        : %d\n", cfg.Cost.LLCHit)
	fmt.Printf("DRAM (outside) : %d\n", cfg.Cost.DRAMAccess)
	fmt.Printf("MEE (inside)   : %d\n", cfg.Cost.MEEAccess)
	fmt.Printf("EPC fault      : %d\n", cfg.Cost.EPCFault)
	fmt.Printf("minor fault    : %d\n", cfg.Cost.MinorFault)
	fmt.Printf("EENTER/EEXIT   : %d\n", cfg.Cost.Transition)
	fmt.Printf("AEX            : %d\n", cfg.Cost.AEX)

	fmt.Println("\n# random-access cost ratio by working set (cycles/access, 64 B strided random)")
	fmt.Printf("%-16s %-12s %-12s %-8s\n", "working-set", "inside", "outside", "ratio")
	for _, mb := range []uint64{4, 32, 64, 96, 128, 192, 256} {
		in := measure(true, mb<<20)
		out := measure(false, mb<<20)
		fmt.Printf("%-16s %-12.0f %-12.0f %-8.1f\n",
			fmt.Sprintf("%d MiB", mb), in, out, in/out)
	}
}

// measure walks a working set pseudo-randomly and returns cycles/access.
func measure(inside bool, wsBytes uint64) float64 {
	p := enclave.NewPlatform(enclave.Config{})
	var mem *enclave.Memory
	var base uint64
	if inside {
		var signer cryptbox.Digest
		enc, err := p.ECreate(wsBytes+(1<<20), signer)
		if err != nil {
			panic(err)
		}
		if _, err := enc.EAdd([]byte("probe")); err != nil {
			panic(err)
		}
		if err := enc.EInit(); err != nil {
			panic(err)
		}
		arena, err := enc.HeapArena()
		if err != nil {
			panic(err)
		}
		base = arena.Alloc(int(wsBytes - (64 << 10)))
		mem = enc.Memory()
	} else {
		mem = p.UntrustedMemory()
		base = p.AllocUntrusted(wsBytes)
		// Pre-touch, mirroring EADD preload inside.
		for a := base; a < base+wsBytes; a += p.Config().PageSize {
			mem.AccessRange(a, 1, true)
		}
	}
	rng := sim.NewRand(7)
	// Warm up residency, then measure.
	const accesses = 30000
	for i := 0; i < accesses/2; i++ {
		mem.AccessRange(base+rng.Uint64()%(wsBytes-64), 8, false)
	}
	mem.ResetAccounting()
	for i := 0; i < accesses; i++ {
		mem.AccessRange(base+rng.Uint64()%(wsBytes-64), 8, false)
	}
	return float64(mem.Cycles()) / accesses
}
