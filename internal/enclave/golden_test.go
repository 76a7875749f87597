package enclave

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenMemoryHierarchy pins the exact accounting outcome of a fixed
// pseudo-random access pattern over the simulated memory hierarchy: total
// cycles, fault count, and the per-cause event counts (which encode the
// LLC hit/miss sequence and the EPC CLOCK eviction sequence). The golden
// file was recorded on the reference implementation; the batched fast path
// must reproduce every value exactly. Regenerate deliberately with
// GOLDEN_UPDATE=1 when the cost model itself changes.
func TestGoldenMemoryHierarchy(t *testing.T) {
	type outcome struct {
		Cycles      uint64 `json:"cycles"`
		Faults      uint64 `json:"faults"`
		LLCHits     uint64 `json:"llc_hit_events"`
		MEE         uint64 `json:"mee_events"`
		DRAM        uint64 `json:"dram_events"`
		EPCFaults   uint64 `json:"epc_fault_events"`
		MinorFaults uint64 `json:"minor_fault_events"`
		AEX         uint64 `json:"aex"`
	}
	type golden struct {
		Inside  outcome `json:"inside"`
		Outside outcome `json:"outside"`
	}

	run := func(inside bool) outcome {
		p := smallPlatform() // 48 usable EPC pages, 256-line LLC
		var mem *Memory
		var base uint64
		const ws = 80 * 4096 // 80 pages: beyond the EPC, beyond the LLC
		if inside {
			e := buildEnclave(t, p, ws+(1<<16), []byte("golden"))
			a, err := e.HeapArena()
			if err != nil {
				t.Fatal(err)
			}
			base = a.Alloc(ws)
			mem = e.Memory()
		} else {
			mem = p.UntrustedMemory()
			base = p.AllocUntrusted(ws)
		}
		mem.ResetAccounting()
		// Deterministic xorshift pattern of mixed-size accesses, including
		// multi-line and page-crossing ones.
		rng := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 5000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			addr := base + rng%(ws-512)
			size := int(1 + rng%500)
			mem.AccessRange(addr, size, i%3 == 0)
		}
		o := outcome{
			Cycles:      uint64(mem.Cycles()),
			Faults:      mem.Faults(),
			LLCHits:     mem.Events(CauseLLCHit),
			MEE:         mem.Events(CauseMEE),
			DRAM:        mem.Events(CauseDRAM),
			EPCFaults:   mem.Events(CauseEPCFault),
			MinorFaults: mem.Events(CauseMinorFault),
		}
		if inside {
			o.AEX = mem.enc.AEXCount()
		}
		return o
	}

	got := golden{Inside: run(true), Outside: run(false)}

	path := filepath.Join("testdata", "golden_memory.json")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded golden metrics: %s", raw)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (record with GOLDEN_UPDATE=1): %v", err)
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("memory-hierarchy metrics drifted:\n got %+v\nwant %+v", got, want)
	}
}
