// Package enclave implements a deterministic simulator of Intel SGX v1
// enclaves: the enclave page cache (EPC) with OS-serviced paging, the memory
// encryption engine (MEE) cost on last-level-cache misses, the enclave
// lifecycle (ECREATE / EADD / EEXTEND / EINIT / EENTER / EEXIT / AEX),
// MRENCLAVE measurement, and sealing-key derivation.
//
// SecureCloud's published evaluation (Figure 3 of the paper) is entirely a
// memory-hierarchy effect: content-based-routing performance collapses by
// ~18x once the subscription database outgrows the EPC, because evicted
// pages must be encrypted, integrity-protected and swapped by the untrusted
// OS. This package reproduces exactly those mechanisms as a cycle-cost
// model over simulated addresses, so the higher layers (SCBR, SCONE, the
// micro-service runtime) can run real Go data structures while charging
// faithful SGX costs for every memory access and every enclave transition.
package enclave

import "securecloud/internal/sim"

// CostModel holds the per-event cycle costs of the simulated platform. The
// defaults are calibrated against public SGX v1 measurements (SCONE,
// OSDI '16; Costan & Devadas, "Intel SGX Explained"). Absolute values scale
// reported times; the experiments in this repository evaluate ratios, which
// depend only on the relative magnitudes.
type CostModel struct {
	// LLCHit is charged for every access that hits the last-level cache,
	// inside or outside an enclave: the MEE sits behind the LLC, so cache
	// hits are unencrypted and cost the same in both worlds.
	LLCHit sim.Cycles

	// DRAMAccess is charged for an LLC miss outside an enclave.
	DRAMAccess sim.Cycles

	// MEEAccess is charged for an LLC miss inside an enclave whose page is
	// EPC-resident: the memory encryption engine decrypts the line and
	// walks its integrity tree (counter + MAC verification).
	MEEAccess sim.Cycles

	// EPCFault is charged when an enclave touches a page that has been
	// evicted from the EPC. It covers the asynchronous exit, the OS page
	// fault handler, EWB of a victim page (encrypt + version + MAC,
	// preceded by the cross-core TLB shootdown EBLOCK/ETRACK requires),
	// ELDU of the faulting page (decrypt + verify), and the resume.
	// Published measurements put the end-to-end cost at tens of
	// microseconds — vastly above a normal minor fault.
	EPCFault sim.Cycles

	// MinorFault is charged for a first-touch (demand-zero) fault on
	// untrusted memory.
	MinorFault sim.Cycles

	// Transition is charged for one synchronous EENTER/EEXIT pair.
	Transition sim.Cycles

	// AEX is charged for an asynchronous enclave exit plus ERESUME.
	AEX sim.Cycles
}

// DefaultCostModel returns the calibrated SGX v1 cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		LLCHit:     40,
		DRAMAccess: 100,
		MEEAccess:  300,
		EPCFault:   120_000,
		MinorFault: 3_000,
		Transition: 8_000,
		AEX:        7_000,
	}
}

// Cause labels used in the cycle ledger: the keys of Memory.Breakdown and
// the names Memory.Events accepts.
const (
	CauseLLCHit     = "llc-hit"
	CauseDRAM       = "dram"
	CauseMEE        = "mee"
	CauseEPCFault   = "epc-fault"
	CauseMinorFault = "minor-fault"
	CauseTransition = "transition"
	CauseAEX        = "aex"
	CauseCPU        = "cpu" // pure computation charged via ChargeCPU
)

// cause indexes a Memory ledger, so the accounting hot path charges by
// array index instead of hashing a string per cache line.
type cause uint8

const (
	causeLLCHit cause = iota
	causeDRAM
	causeMEE
	causeEPCFault
	causeMinorFault
	causeTransition
	causeAEX
	causeCPU
	numCauses
)

// causeNames maps each cause to its label.
var causeNames = [numCauses]string{
	causeLLCHit:     CauseLLCHit,
	causeDRAM:       CauseDRAM,
	causeMEE:        CauseMEE,
	causeEPCFault:   CauseEPCFault,
	causeMinorFault: CauseMinorFault,
	causeTransition: CauseTransition,
	causeAEX:        CauseAEX,
	causeCPU:        CauseCPU,
}
