package enclave

import (
	"runtime"
	"testing"
	"unsafe"
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

// accessStride charges n accesses of size bytes at base, base+stride,
// base+2*stride, ... through one span: the page warm-up walk.
func accessStride(m *Memory, base, stride uint64, n, size int) {
	sp := m.BeginSpan()
	for i := range n {
		sp.Access(base+uint64(i)*stride, size)
	}
	sp.End()
}

// accessEach charges one access of size bytes at each of addrs, in order,
// through one span: a scattered batch.
func accessEach(m *Memory, addrs []uint64, size int) {
	sp := m.BeginSpan()
	for _, a := range addrs {
		sp.Access(a, size)
	}
	sp.End()
}

// TestMutatingSpanAllocatesNothing: a view's mutating span is its own,
// bound and reset under the platform mutex, so opening, using and ending
// one allocates nothing.
func TestMutatingSpanAllocatesNothing(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	allocs := testing.AllocsPerRun(100, func() {
		sp := m.BeginSpan()
		sp.AccessCPU(base, 64, 3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("Begin/Access/End allocates %.0f times, want 0", allocs)
	}
}

// TestNilSpanChargesNothing: an unaccounted structure's nil arena hands
// out address 0 and a nil view, which opens nil spans whose every method
// is a no-op.
func TestNilSpanChargesNothing(t *testing.T) {
	var a *Arena
	if addr, tail := a.Alloc(64), a.AllocTail(64); addr != 0 || tail != 0 {
		t.Fatalf("a nil arena allocated %#x and %#x", addr, tail)
	}
	m := a.Memory()
	if m != nil {
		t.Fatalf("a nil arena has view %p", m)
	}
	for _, sp := range []*Span{m.BeginSpan(), m.BeginSnapshotSpan()} {
		if sp != nil {
			t.Fatalf("a nil view opened span %p", sp)
		}
		sp.Access(64, 64)
		sp.AccessCPU(64, 64, 10)
		sp.ChargeCPU(10)
		sp.End()
	}
}

func TestUntrustedAccessChargesMinorFaultOnce(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.AccessRange(base, 8, false)
	if m.Faults() != 1 {
		t.Fatalf("first touch faults = %d, want 1", m.Faults())
	}
	m.AccessRange(base+64, 8, false)
	if m.Faults() != 1 {
		t.Fatalf("second touch on same page faulted again: %d", m.Faults())
	}
}

func TestUntrustedLLCHitCheaperThanMiss(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.AccessRange(base, 8, false) // cold: fault + DRAM
	cold := m.Cycles()
	m.AccessRange(base, 8, false) // hot: LLC hit
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
		mem.AccessRange(addrs[i], 8, true)
	}
	firstPass := mem.Faults()
	if firstPass != 100 {
		t.Fatalf("first pass faults = %d, want 100 (every page cold)", firstPass)
	}
	// Second pass must fault again for most pages (working set > EPC).
	for _, addr := range addrs {
		mem.AccessRange(addr, 8, false)
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
		mem.AccessRange(addrs[i], 8, true)
	}
	cold := mem.Faults()
	for _, addr := range addrs {
		mem.AccessRange(addr, 8, false)
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
	mem.AccessRange(addr, 8, true)
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
	mem.AccessRange(a.Alloc(4096), 8, true)
	if e.AEXCount() != before+1 {
		t.Fatalf("AEXCount = %d, want %d (EPC fault exits the enclave)", e.AEXCount(), before+1)
	}
}

func TestAccessSpansMultipleLines(t *testing.T) {
	p := smallPlatform()
	m := p.UntrustedMemory()
	base := p.AllocUntrusted(4096)
	m.AccessRange(base, 8, false)
	one := m.Events(CauseDRAM) + m.Events(CauseLLCHit)
	m.AccessRange(base+1024, 256, false) // 4 lines
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
	mem.AccessRange(addr, 8, true) // fault in
	mem.ResetAccounting()
	mem.AccessRange(addr, 8, false) // still resident: no fault
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
		mem.AccessRange(a.Alloc(4096), 8, true)
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
		a.Memory().AccessRange(aAddrs[i], 8, true)
	}
	// B streams through, evicting A.
	for i := 0; i < 40; i++ {
		b.Memory().AccessRange(ba.Alloc(4096), 8, true)
	}
	a.Memory().ResetAccounting()
	for _, addr := range aAddrs {
		a.Memory().AccessRange(addr, 8, false)
	}
	if a.Memory().Faults() == 0 {
		t.Fatal("enclave A kept all pages despite B streaming through the shared EPC")
	}
}

// access touches the line of addr in a cache of 64 B lines, as every
// cache these tests build has.
func (c *llc) access(addr uint64) bool { return c.accessTag(addr / 64) }

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

func TestLLCInvalidatePage(t *testing.T) {
	c := newLLC(4096, 64, 4096, 4)
	c.access(0)    // page 0
	c.access(64)   // page 0
	c.access(4096) // page 1
	n := c.llcLines()
	c.invalidatePage(0) // drops lines at 0 and 64
	if got := c.llcLines(); got != n-2 {
		t.Fatalf("lines after invalidate = %d, want %d", got, n-2)
	}
	if c.access(0) {
		t.Fatal("invalidated line still hit")
	}
	if !c.access(4096) {
		t.Fatal("line on untouched page was dropped")
	}
}

// TestLLCOrderIsLRU follows one 4-way set's order word through fills,
// hits, an invalidation and evictions: it must list the ways from most to
// least recently used, a miss must refill an emptied way by index
// whatever its place in that order, and a full set must evict its LRU
// line.
func TestLLCOrderIsLRU(t *testing.T) {
	c := newLLC(4096, 64, 4096, 4) // 16 sets, 4-way
	// Page-sized strides land in set 0, one line per page.
	const stride = 4096
	order := func(want ...int) {
		t.Helper()
		got := c.chunks[0][0]
		for pos, w := range want {
			if int(got>>(4*pos)&15) != w {
				t.Fatalf("set 0 order word %#x, want ways %v from MRU to LRU", got, want)
			}
		}
	}
	for i := uint64(0); i < 4; i++ {
		c.access(i * stride) // line i fills way i
	}
	order(3, 2, 1, 0)
	c.access(1 * stride)
	c.access(0)
	order(0, 1, 3, 2)
	c.access(0) // an MRU hit changes nothing
	order(0, 1, 3, 2)
	c.invalidatePage(1)  // empties way 1, line 1's
	c.access(4 * stride) // refills way 1: the empty way, not the LRU
	order(1, 0, 3, 2)
	if !c.access(2 * stride) {
		t.Fatal("the LRU line was evicted while a way was empty")
	}
	order(2, 1, 0, 3)
	c.access(5 * stride) // evicts line 3, the LRU
	order(3, 2, 1, 0)
	if c.probeTag(3*stride/64) || !c.probeTag(0) || !c.probeTag(2*stride/64) || !c.probeTag(4*stride/64) {
		t.Fatal("a miss in a full set evicted a line other than the LRU")
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

// TestPlatformAllocatesWhatItTouches: a platform allocates LLC chunks and
// EPC ring slots on first use, so building one costs a few KiB however
// large the simulated machine, one access allocates one chunk, and a
// sweep allocates exactly the chunks of the sets it touched and one ring
// slot per page it loaded. A full LLC's metadata stays under a ceiling.
func TestPlatformAllocatesWhatItTouches(t *testing.T) {
	allocated := func(c *llc) map[uint64]bool {
		m := map[uint64]bool{}
		for i, ch := range c.chunks {
			if ch != nil {
				m[uint64(i)] = true
			}
		}
		return m
	}

	// Building: the minimum over a few rounds discounts stray allocations
	// of other goroutines.
	const budget, rounds = 32 << 10, 8
	perPlatform := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			NewPlatform(Config{})
		}
		runtime.ReadMemStats(&after)
		perPlatform = min(perPlatform, (after.TotalAlloc-before.TotalAlloc)/rounds)
	}
	if perPlatform > budget {
		t.Fatalf("NewPlatform(Config{}) allocates %d B, budget %d B", perPlatform, budget)
	}

	p := NewPlatform(Config{})
	if n := len(allocated(p.cache)); n != 0 {
		t.Fatalf("fresh platform has %d LLC chunks allocated, want 0", n)
	}
	if n := len(p.pager.pages); n != 0 {
		t.Fatalf("fresh platform has %d EPC ring slots, want 0", n)
	}
	p.UntrustedMemory().AccessRange(p.AllocUntrusted(64), 8, false)
	if n := len(allocated(p.cache)); n != 1 {
		t.Fatalf("one access allocated %d LLC chunks, want 1", n)
	}

	// Sweeping one line of every page of a 2 MiB enclave.
	enc, _, err := NewWorker(Config{}, 2<<20, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	c := enc.Platform().cache
	want := allocated(c)
	before := len(want)
	sets := map[uint64]bool{}
	pages := int(enc.Size() / 4096)
	for i := range pages {
		s := (enc.Base() + uint64(i)*4096) >> enc.Platform().lineShift & c.setMask
		sets[s] = true
		want[s>>chunkShift] = true
	}
	accessStride(enc.Memory(), enc.Base(), 4096, pages, 8)
	got := allocated(c)
	if len(got)-before > len(sets) || len(got) != len(want) {
		t.Fatalf("sweep over %d sets took LLC chunks %d -> %d, want %d", len(sets), before, len(got), len(want))
	}
	for ci := range want {
		if !got[ci] {
			t.Fatalf("chunk %d of a swept set is not allocated", ci)
		}
	}
	pager := enc.Platform().pager
	if ring, resident := len(pager.pages), pager.residentPages(); ring != resident || resident != pages {
		t.Fatalf("sweep of %d pages: EPC ring has %d slots for %d resident pages", pages, ring, resident)
	}

	// Filling every way of a default LLC with an 8 MiB walk: its chunks,
	// their directory and the per-page line bitmaps stay within 1.1 MiB
	// (one order word and assoc tag words per set).
	const ceiling = 11 << 20 / 10
	p = NewPlatform(Config{})
	c = p.cache
	accessStride(p.UntrustedMemory(), p.AllocUntrusted(8<<20), 64, (8<<20)/64, 8)
	if n, want := c.llcLines(), len(c.chunks)*chunkSets*c.assoc; n != want {
		t.Fatalf("an 8 MiB walk left %d lines resident, want %d: the LLC is not full", n, want)
	}
	meta := len(c.chunks) * int(unsafe.Sizeof(c.chunks[0]))
	for _, ch := range c.chunks {
		meta += cap(ch) * 8
	}
	meta += (cap(c.lines.low) + cap(c.lines.high)) * 8
	if meta > ceiling {
		t.Fatalf("a full default LLC holds %d B of metadata, ceiling %d B", meta, ceiling)
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
