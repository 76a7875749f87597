package enclave

import (
	"testing"
)

// smallPlatform returns a platform with a tiny EPC and LLC so paging
// behaviour can be exercised quickly.
func smallPlatform() *Platform {
	return NewPlatform(Config{
		EPCBytes:         64 * 4096, // 64 pages total
		EPCReservedBytes: 16 * 4096, // 48 usable
		LLCBytes:         16 << 10,  // 256 lines
		LLCWays:          4,
		LineSize:         64,
		PageSize:         4096,
	})
}

func TestUntrustedAccessChargesMinorFaultOnce(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.Access(base, 8, false)
	if m.Faults() != 1 {
		t.Fatalf("first touch faults = %d, want 1", m.Faults())
	}
	m.Access(base+64, 8, false)
	if m.Faults() != 1 {
		t.Fatalf("second touch on same page faulted again: %d", m.Faults())
	}
}

func TestUntrustedLLCHitCheaperThanMiss(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.Access(base, 8, false) // cold: fault + DRAM
	cold := m.Cycles()
	m.Access(base, 8, false) // hot: LLC hit
	hot := m.Cycles() - cold
	if hot >= cold {
		t.Fatalf("hot access (%d) not cheaper than cold (%d)", hot, cold)
	}
	if hot != p.Config().Cost.LLCHit {
		t.Fatalf("hot access = %d cycles, want LLCHit %d", hot, p.Config().Cost.LLCHit)
	}
}

func TestEnclaveAccessFaultsWhenExceedingEPC(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code")) // 256 pages >> 48 EPC pages
	a, err := e.HeapArena()
	if err != nil {
		t.Fatal(err)
	}
	mem := e.Memory()
	mem.ResetAccounting()

	// Touch 100 distinct pages: more than the EPC can hold.
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = a.Alloc(4096)
		mem.Access(addrs[i], 8, true)
	}
	firstPass := mem.Faults()
	if firstPass != 100 {
		t.Fatalf("first pass faults = %d, want 100 (every page cold)", firstPass)
	}
	// Second pass must fault again for most pages (working set > EPC).
	for _, addr := range addrs {
		mem.Access(addr, 8, false)
	}
	secondPass := mem.Faults() - firstPass
	if secondPass == 0 {
		t.Fatal("no faults on second pass despite working set exceeding EPC")
	}
}

func TestEnclaveAccessNoFaultsWhenFittingEPC(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code"))
	a, _ := e.HeapArena()
	mem := e.Memory()
	mem.ResetAccounting()

	// 20 pages fit comfortably in 48 EPC pages.
	addrs := make([]uint64, 20)
	for i := range addrs {
		addrs[i] = a.Alloc(4096)
		mem.Access(addrs[i], 8, true)
	}
	cold := mem.Faults()
	for _, addr := range addrs {
		mem.Access(addr, 8, false)
	}
	if mem.Faults() != cold {
		t.Fatalf("re-touching resident pages faulted: %d -> %d", cold, mem.Faults())
	}
}

func TestEPCFaultCostDominates(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code"))
	a, _ := e.HeapArena()
	mem := e.Memory()
	mem.ResetAccounting()
	addr := a.Alloc(4096)
	mem.Access(addr, 8, true)
	bd := mem.Breakdown()
	if bd[CauseEPCFault] == 0 {
		t.Fatal("EPC fault not charged for cold enclave access")
	}
	if bd[CauseEPCFault] <= bd[CauseMEE] {
		t.Fatal("EPC fault cost should dominate the MEE line fill")
	}
}

func TestEPCFaultCountsAsAEX(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code"))
	a, _ := e.HeapArena()
	before := e.AEXCount()
	mem := e.Memory()
	mem.Access(a.Alloc(4096), 8, true)
	if e.AEXCount() != before+1 {
		t.Fatalf("AEXCount = %d, want %d (EPC fault exits the enclave)", e.AEXCount(), before+1)
	}
}

func TestAccessSpansMultipleLines(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.Access(base, 8, false)
	one := m.Events(CauseDRAM) + m.Events(CauseLLCHit)
	m.Access(base+1024, 256, false) // 4 lines
	total := m.Events(CauseDRAM) + m.Events(CauseLLCHit)
	if total-one != 4 {
		t.Fatalf("256-byte access touched %d lines, want 4", total-one)
	}
}

func TestResetAccountingKeepsResidency(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code"))
	a, _ := e.HeapArena()
	mem := e.Memory()
	addr := a.Alloc(4096)
	mem.Access(addr, 8, true) // fault in
	mem.ResetAccounting()
	mem.Access(addr, 8, false) // still resident: no fault
	if mem.Faults() != 0 {
		t.Fatal("ResetAccounting evicted pages")
	}
	if mem.Cycles() == 0 {
		t.Fatal("no cycles charged after reset")
	}
}

func TestDestroyReleasesEPC(t *testing.T) {
	p := smallPlatform()
	e := buildEnclave(t, p, 1<<20, []byte("code"))
	a, _ := e.HeapArena()
	mem := e.Memory()
	for i := 0; i < 10; i++ {
		mem.Access(a.Alloc(4096), 8, true)
	}
	if p.EPCResidentPages() == 0 {
		t.Fatal("no resident pages before destroy")
	}
	before := p.EPCResidentPages()
	e.Destroy()
	if got := p.EPCResidentPages(); got >= before {
		t.Fatalf("EPC pages not released: %d -> %d", before, got)
	}
}

func TestEnclavesCompeteForEPC(t *testing.T) {
	p := smallPlatform() // 48 usable pages
	a := buildEnclave(t, p, 1<<20, []byte("A"))
	b := buildEnclave(t, p, 1<<20, []byte("B"))
	aa, _ := a.HeapArena()
	ba, _ := b.HeapArena()

	// A fills the EPC.
	aAddrs := make([]uint64, 40)
	for i := range aAddrs {
		aAddrs[i] = aa.Alloc(4096)
		a.Memory().Access(aAddrs[i], 8, true)
	}
	// B streams through, evicting A.
	for i := 0; i < 40; i++ {
		b.Memory().Access(ba.Alloc(4096), 8, true)
	}
	a.Memory().ResetAccounting()
	for _, addr := range aAddrs {
		a.Memory().Access(addr, 8, false)
	}
	if a.Memory().Faults() == 0 {
		t.Fatal("enclave A kept all pages despite B streaming through the shared EPC")
	}
}

func TestLLCSimBasics(t *testing.T) {
	c := newLLC(1024, 64, 4096, 2) // 16 lines, 8 sets, 2-way
	if c.access(0) {
		t.Fatal("cold access hit")
	}
	if !c.access(0) {
		t.Fatal("warm access missed")
	}
	// Fill the set of address 0 (same set every 8 lines * 64B = 512B stride).
	c.access(512)
	c.access(1024) // evicts LRU (which is addr 0 after its last touch? order: 0 touched, 512, now 1024 evicts 0)
	if c.access(0) {
		t.Fatal("evicted line still present")
	}
}

func TestLLCInvalidateRange(t *testing.T) {
	c := newLLC(4096, 64, 4096, 4)
	c.access(0)    // page 0
	c.access(64)   // page 0
	c.access(4096) // page 1
	n := c.lines()
	c.invalidateRange(0, 4096) // flushes page 0: drops lines at 0 and 64
	if got := c.lines(); got != n-2 {
		t.Fatalf("lines after invalidate = %d, want %d", got, n-2)
	}
	if c.access(0) {
		t.Fatal("invalidated line still hit")
	}
	if !c.access(4096) {
		t.Fatal("line on untouched page was dropped")
	}
}

func TestLLCStampRenormalizationPreservesLRU(t *testing.T) {
	c := newLLC(4096, 64, 4096, 4) // 16 sets, 4-way
	// Fill one set in a known recency order: strides of numSets*lineSize
	// land in the same set.
	const stride = 16 * 64
	for i := uint64(0); i < 4; i++ {
		c.access(i * stride) // LRU order after fills: 0,1,2,3 (0 oldest)
	}
	c.access(1 * stride) // now 0 is oldest, then 2, 3, 1
	c.renormalizeStamps()
	if c.tick != 4 {
		t.Fatalf("tick after renormalization = %d, want assoc (4)", c.tick)
	}
	// A fifth line must evict the LRU, which is line 0.
	c.access(4 * stride)
	if !c.access(2*stride) || !c.access(3*stride) || !c.access(1*stride) {
		t.Fatal("non-LRU line was evicted after stamp renormalization")
	}
	if c.access(0) {
		t.Fatal("LRU line survived eviction after stamp renormalization")
	}
}

func TestEPCSimCLOCK(t *testing.T) {
	e := newEPC(4*4096, 0, 4096) // 4 pages
	for p := uint64(0); p < 4; p++ {
		faulted, _, evicted := e.touch(p * 4096)
		if !faulted || evicted {
			t.Fatalf("page %d: faulted=%v evicted=%v, want fault without eviction", p, faulted, evicted)
		}
	}
	// Re-touch: all resident.
	for p := uint64(0); p < 4; p++ {
		if faulted, _, _ := e.touch(p * 4096); faulted {
			t.Fatalf("resident page %d faulted", p)
		}
	}
	// Fifth page evicts someone.
	faulted, _, evicted := e.touch(4 * 4096)
	if !faulted || !evicted {
		t.Fatal("fifth page into 4-page EPC did not evict")
	}
	if e.residentPages() != 4 {
		t.Fatalf("resident = %d, want 4", e.residentPages())
	}
}

func TestUsableEPCBytes(t *testing.T) {
	p := NewPlatform(Config{})
	usable := p.UsableEPCBytes()
	if usable >= 128<<20 {
		t.Fatalf("usable EPC %d not below 128 MiB (metadata must be reserved)", usable)
	}
	if usable < 80<<20 {
		t.Fatalf("usable EPC %d implausibly small", usable)
	}
}

// TestArenaAllocTail checks the two-sided arena: tail allocations descend
// from the end without moving the bump side's address sequence, the two
// sides never hand out overlapping bytes, Used counts both, and each side
// panics rather than cross into the other.
func TestArenaAllocTail(t *testing.T) {
	const base, size = 0x10000, 1024
	twin := NewArena(nil, base, size)
	a := NewArena(nil, base, size)
	var bump, tail [][2]uint64 // [addr, size]
	for _, n := range []int{24, 100, 7} {
		tail = append(tail, [2]uint64{a.AllocTail(n), uint64(n)})
		addr := a.Alloc(n)
		if want := twin.Alloc(n); addr != want {
			t.Fatalf("Alloc(%d) = %#x after a tail allocation, %#x without", n, addr, want)
		}
		bump = append(bump, [2]uint64{addr, uint64(n)})
	}
	for i, r := range tail {
		if r[0]%8 != 0 || r[0]+r[1] > base+size {
			t.Fatalf("tail allocation %d = [%#x,+%d): misaligned or past the end", i, r[0], r[1])
		}
		if i > 0 && r[0]+r[1] > tail[i-1][0] {
			t.Fatalf("tail allocation %d overlaps the one before it", i)
		}
	}
	if top, low := bump[len(bump)-1], tail[len(tail)-1]; top[0]+top[1] > low[0] {
		t.Fatalf("bump side [%#x,+%d) reaches into the tail side at %#x", top[0], top[1], low[0])
	}
	if want := twin.Used() + (base + size - tail[len(tail)-1][0]); a.Used() != want {
		t.Fatalf("Used = %d, want %d (both sides)", a.Used(), want)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on an exhausted arena", name)
			}
		}()
		f()
	}
	free := int(a.Capacity() - a.Used())
	used := a.Used()
	mustPanic("AllocTail", func() { a.AllocTail(free + 1) })
	mustPanic("Alloc", func() { a.Alloc(free + 1) })
	if a.Used() != used {
		t.Fatalf("a refused allocation changed Used: %d -> %d", used, a.Used())
	}
	a.AllocTail(free)
	if a.Used() != a.Capacity() {
		t.Fatalf("Used = %d after filling the arena, capacity %d", a.Used(), a.Capacity())
	}
	mustPanic("Alloc", func() { a.Alloc(1) })
	mustPanic("AllocTail", func() { a.AllocTail(1) })
}
