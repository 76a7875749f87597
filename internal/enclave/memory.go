package enclave

import (
	"fmt"
	"sync"
	"sync/atomic"

	"securecloud/internal/sim"
)

// Memory is an accounting view of the platform memory hierarchy for one
// protection domain: either the inside of a specific enclave or the
// untrusted world. Higher layers run ordinary Go data structures but route
// a simulated Access for every logical memory touch; the view charges
// cache, MEE and paging costs into its ledger and advances the platform
// clock.
//
// Accounting is batched: each Access (or bulk AccessN/AccessStride) walks
// its cache lines accumulating per-cause event counts in locals and commits
// once — one ledger charge and one clock advance per call instead of per
// line. The committed totals are bit-identical to per-line charging because
// every per-event cost is a fixed platform constant.
type Memory struct {
	p   *Platform
	enc *Enclave // nil for the untrusted view

	ledger  ledger
	faults  uint64 // page faults (EPC faults inside, minor faults outside); guarded by p.mu
	touched map[uint64]struct{}
}

// ledger is Memory's per-cause accounting store. All mutations happen with
// the platform mutex held — one lock discipline for every counter this view
// owns — while the running total is additionally kept atomically so the
// hot Cycles() read never takes a lock.
type ledger struct {
	total  atomic.Uint64
	costs  [sim.MaxCauses]sim.Cycles
	events [sim.MaxCauses]uint64
}

// addLocked records events occurrences of cause costing cost in total.
// Caller holds p.mu.
func (l *ledger) addLocked(cause sim.Cause, cost sim.Cycles, events uint64) {
	l.costs[cause] += cost
	l.events[cause] += events
	l.total.Add(uint64(cost))
}

// eventsLocked returns the event count of cause. Caller holds p.mu.
func (l *ledger) eventsLocked(cause sim.Cause) uint64 { return l.events[cause] }

// acct accumulates one batch's per-cause event counts while p.mu is held.
type acct struct {
	hits   uint64
	mee    uint64
	dram   uint64
	epcF   uint64
	minorF uint64
	cpu    sim.Cycles // pure-CPU cycles folded into the same commit
	cpuN   uint64     // number of CPU charges folded in
}

// accessLocked walks the cache lines of [addr, addr+size) updating cache
// and pager state, accumulating event counts into st. Caller holds p.mu.
// The walk goes page by page — one residency touch and one set of division
// results per page, with the inner loop iterating line tags directly.
func (m *Memory) accessLocked(st *acct, addr uint64, size int) {
	p := m.p
	line := p.cfg.LineSize
	pageSize := p.cfg.PageSize
	first := addr / line
	last := (addr + uint64(size) - 1) / line
	inside := m.enc != nil
	if first == last {
		// Single-line access: the dominant case for data-structure probes.
		// The page derives from the line-start address, as in the loop
		// below — addr itself may sit on a later page when LineSize does
		// not divide PageSize.
		page := first * line / pageSize
		m.touchPageLocked(st, page)
		if p.cache.accessTag(first, page) {
			st.hits++
		} else if inside {
			st.mee++
		} else {
			st.dram++
		}
		return
	}
	for l := first; l <= last; {
		la := l * line
		page := la / pageSize
		m.touchPageLocked(st, page)
		var end uint64 // last tag on this page
		if lpp := p.linesPerPage; lpp != 0 {
			end = (page+1)*lpp - 1
		} else {
			end = ((page+1)*pageSize - 1) / line
		}
		if end > last {
			end = last
		}
		for ; l <= end; l++ {
			if p.cache.accessTag(l, page) {
				st.hits++
			} else if inside {
				st.mee++
			} else {
				st.dram++
			}
		}
	}
}

// commitLocked charges the accumulated batch: one ledger commit, one fault
// update and one clock advance. Caller holds p.mu.
func (m *Memory) commitLocked(st *acct) {
	cost := m.p.cfg.Cost
	var total sim.Cycles
	add := func(cause sim.Cause, c sim.Cycles, events uint64) {
		if events == 0 {
			return
		}
		m.ledger.addLocked(cause, c, events)
		total += c
	}
	add(causeLLCHit, sim.Cycles(st.hits)*cost.LLCHit, st.hits)
	add(causeMEE, sim.Cycles(st.mee)*cost.MEEAccess, st.mee)
	add(causeDRAM, sim.Cycles(st.dram)*cost.DRAMAccess, st.dram)
	add(causeEPCFault, sim.Cycles(st.epcF)*cost.EPCFault, st.epcF)
	add(causeMinorFault, sim.Cycles(st.minorF)*cost.MinorFault, st.minorF)
	if st.cpu > 0 {
		add(causeCPU, st.cpu, st.cpuN)
	}
	m.faults += st.epcF + st.minorF
	if m.enc != nil {
		m.enc.aex += st.epcF // every EPC fault implies an asynchronous exit
	}
	if total > 0 {
		m.p.clock.Advance(total)
	}
}

// Access simulates a read (write=false) or write (write=true) of size bytes
// at the simulated address addr.
func (m *Memory) Access(addr uint64, size int, write bool) {
	m.AccessRange(addr, size, write)
}

// AccessRange simulates one contiguous access of size bytes at addr,
// charging all touched lines and pages in a single batched commit. Reads
// and writes cost the same in this model.
func (m *Memory) AccessRange(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	_ = write
	var st acct
	m.p.mu.Lock()
	m.accessLocked(&st, addr, size)
	m.commitLocked(&st)
	m.p.mu.Unlock()
}

// AccessRangeCPU is AccessRange plus cpu cycles of pure computation folded
// into the same commit — the shape of one data-structure probe (read the
// node, pay the comparison), charged with a single lock round-trip.
func (m *Memory) AccessRangeCPU(addr uint64, size int, write bool, cpu sim.Cycles) {
	if size <= 0 {
		if cpu > 0 {
			m.ChargeCPU(cpu)
		}
		return
	}
	_ = write
	var st acct
	if cpu > 0 {
		st.cpu, st.cpuN = cpu, 1
	}
	m.p.mu.Lock()
	m.accessLocked(&st, addr, size)
	m.commitLocked(&st)
	m.p.mu.Unlock()
}

// Span is an open accounting batch over one Memory view: an arbitrary
// sequence of accesses and CPU charges — e.g. one whole index traversal —
// accumulated under a single platform-lock acquisition and committed once
// by End. Cache and paging state evolve access by access exactly as with
// individual calls; only the lock round-trips and ledger commits collapse.
// The platform mutex is held from BeginSpan to End, so spans must be
// short-lived, must not nest, and must not call other Memory or Platform
// methods. Counters read by other goroutines (Cycles, Faults) only reflect
// a span after End.
type Span struct {
	m  *Memory
	st acct

	// ro marks a snapshot span: accesses probe the frozen cache and
	// residency state without mutating it (see BeginSnapshotSpan). roLines
	// and roPages are the span-local overlay — lines and pages this span
	// already touched, which behave as cached/resident for the rest of the
	// span, exactly as they would after a mutating first touch.
	ro      bool
	roLines map[uint64]struct{}
	roPages map[uint64]struct{}
}

// BeginSpan opens a span. Every span must be closed with End.
func (m *Memory) BeginSpan() *Span {
	sp := &Span{m: m}
	m.p.mu.Lock()
	return sp
}

// roSpanPool recycles snapshot spans (and their overlay maps), since the
// concurrent match path opens one per operation.
var roSpanPool = sync.Pool{New: func() any {
	return &Span{
		ro:      true,
		roLines: make(map[uint64]struct{}, 512),
		roPages: make(map[uint64]struct{}, 64),
	}
}}

// BeginSnapshotSpan opens a read-only accounting span: every Access is
// charged against the platform's current cache and residency state as a
// pure probe — no LRU stamps move, no CLOCK bits flip, no pages load — so
// the global simulation state is bit-identical before and after the span.
// Within the span a local overlay makes re-touches of the same line or page
// behave as hits, mirroring what a mutating first touch would have made
// them; evictions a real execution might trigger are deferred (never
// modeled), which is the documented snapshot approximation.
//
// Because snapshot spans mutate nothing, any interleaving of concurrent
// snapshot spans charges the same totals — the property the sharded SCBR
// broker relies on for deterministic parallel matching. The platform mutex
// is only taken briefly by End to commit the ledger; the probe phase runs
// lock-free. Callers must therefore guarantee no mutating access (ordinary
// Access/Span, EEnter, allocation) runs on this platform while a snapshot
// span is open — e.g. by holding the read side of a lock whose write side
// covers all mutators.
func (m *Memory) BeginSnapshotSpan() *Span {
	sp := roSpanPool.Get().(*Span)
	sp.m = m
	return sp
}

// Access records one access of size bytes at addr within the span.
func (sp *Span) Access(addr uint64, size int, write bool) {
	_ = write
	if size <= 0 {
		return
	}
	if sp.ro {
		sp.probe(addr, size)
		return
	}
	sp.m.accessLocked(&sp.st, addr, size)
}

// AccessCPU records one access plus cpu cycles of pure computation — the
// shape of one data-structure probe.
func (sp *Span) AccessCPU(addr uint64, size int, write bool, cpu sim.Cycles) {
	_ = write
	if cpu > 0 {
		sp.st.cpu += cpu
		sp.st.cpuN++
	}
	if size <= 0 {
		return
	}
	if sp.ro {
		sp.probe(addr, size)
		return
	}
	sp.m.accessLocked(&sp.st, addr, size)
}

// ChargeCPU records pure computation cycles within the span.
func (sp *Span) ChargeCPU(c sim.Cycles) {
	if c > 0 {
		sp.st.cpu += c
		sp.st.cpuN++
	}
}

// probe walks the cache lines of [addr, addr+size) read-only, accumulating
// hit/miss/fault counts against frozen platform state plus the span-local
// overlay. Mirrors accessLocked's page-by-page walk.
func (sp *Span) probe(addr uint64, size int) {
	m := sp.m
	p := m.p
	line := p.cfg.LineSize
	pageSize := p.cfg.PageSize
	first := addr / line
	last := (addr + uint64(size) - 1) / line
	inside := m.enc != nil
	for l := first; l <= last; {
		la := l * line
		page := la / pageSize
		sp.probePage(page)
		var end uint64 // last tag on this page
		if lpp := p.linesPerPage; lpp != 0 {
			end = (page+1)*lpp - 1
		} else {
			end = ((page+1)*pageSize - 1) / line
		}
		if end > last {
			end = last
		}
		for ; l <= end; l++ {
			hit := true
			if _, ok := sp.roLines[l]; !ok {
				sp.roLines[l] = struct{}{}
				hit = p.cache.probeTag(l, page)
			}
			if hit {
				sp.st.hits++
			} else if inside {
				sp.st.mee++
			} else {
				sp.st.dram++
			}
		}
	}
}

// probePage accounts residency for one page read-only: the first touch of a
// non-resident page in this span charges a fault; afterwards the page is
// locally resident.
func (sp *Span) probePage(page uint64) {
	if _, ok := sp.roPages[page]; ok {
		return
	}
	sp.roPages[page] = struct{}{}
	m := sp.m
	if m.enc != nil {
		if !m.p.pager.isResident(page) {
			sp.st.epcF++
		}
		return
	}
	if _, ok := m.touched[page]; !ok {
		sp.st.minorF++
	}
}

// End commits the span's accumulated accounting and releases the platform.
// Snapshot spans take the platform mutex only here, for the commit itself,
// and are recycled.
func (sp *Span) End() {
	if sp.ro {
		m := sp.m
		m.p.mu.Lock()
		m.commitLocked(&sp.st)
		m.p.mu.Unlock()
		sp.m = nil
		sp.st = acct{}
		clear(sp.roLines)
		clear(sp.roPages)
		roSpanPool.Put(sp)
		return
	}
	sp.m.commitLocked(&sp.st)
	sp.m.p.mu.Unlock()
	sp.m = nil
}

// AccessN simulates one access of size bytes at each address in addrs — a
// scattered bulk access, e.g. every node of a bucket or every record of a
// batch — under a single platform lock acquisition and a single accounting
// commit. Addresses are touched in slice order, so cache and paging state
// evolve exactly as for individual Access calls.
func (m *Memory) AccessN(addrs []uint64, size int, write bool) {
	if size <= 0 || len(addrs) == 0 {
		return
	}
	_ = write
	var st acct
	m.p.mu.Lock()
	for _, addr := range addrs {
		m.accessLocked(&st, addr, size)
	}
	m.commitLocked(&st)
	m.p.mu.Unlock()
}

// AccessStride simulates n accesses of size bytes at base, base+stride,
// base+2*stride, ... under a single lock acquisition and accounting commit.
// It is the bulk form of the classic touch-every-page warm-up loop.
func (m *Memory) AccessStride(base, stride uint64, n, size int, write bool) {
	if size <= 0 || n <= 0 {
		return
	}
	_ = write
	var st acct
	m.p.mu.Lock()
	addr := base
	for i := 0; i < n; i++ {
		m.accessLocked(&st, addr, size)
		addr += stride
	}
	m.commitLocked(&st)
	m.p.mu.Unlock()
}

// touchPageLocked handles residency for one page, accumulating fault
// events into st. Caller holds p.mu.
func (m *Memory) touchPageLocked(st *acct, page uint64) {
	p := m.p
	if m.enc != nil {
		faulted, evicted, ok := p.pager.touchPage(page)
		if faulted {
			st.epcF++
			if ok {
				// The victim's cached lines are flushed on EWB.
				p.cache.invalidatePage(evicted)
			}
		}
		return
	}
	if _, ok := m.touched[page]; !ok {
		m.touched[page] = struct{}{}
		st.minorF++
	}
}

// charge records a single non-memory cost (transition, AEX, CPU) against
// the ledger and the platform clock.
func (m *Memory) charge(cause sim.Cause, c sim.Cycles) {
	m.p.mu.Lock()
	m.ledger.addLocked(cause, c, 1)
	m.p.mu.Unlock()
	m.p.clock.Advance(c)
}

// CauseCPU labels pure computation charged via ChargeCPU.
const CauseCPU = "cpu"

// ChargeCPU charges pure computation cycles. Arithmetic costs the same
// inside and outside an enclave — SGX taxes memory, not ALUs — so harness
// code charges it symmetrically to both views.
func (m *Memory) ChargeCPU(c sim.Cycles) { m.charge(causeCPU, c) }

// Cycles returns the total simulated cycles charged to this view.
func (m *Memory) Cycles() sim.Cycles { return sim.Cycles(m.ledger.total.Load()) }

// Faults returns the number of page faults charged to this view.
func (m *Memory) Faults() uint64 {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	return m.faults
}

// Breakdown returns the per-cause cycle ledger, keyed by cause name.
func (m *Memory) Breakdown() map[string]sim.Cycles {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	out := make(map[string]sim.Cycles)
	for i := range m.ledger.costs {
		if m.ledger.events[i] > 0 {
			out[sim.Cause(i).String()] = m.ledger.costs[i]
		}
	}
	return out
}

// Events returns how many times the named cause was charged to this view.
func (m *Memory) Events(cause string) uint64 {
	c, ok := sim.LookupCause(cause)
	if !ok {
		return 0
	}
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	return m.ledger.eventsLocked(c)
}

// ResetAccounting zeroes the ledger and fault counter without touching
// residency state, so a harness can warm up and then measure. Every
// accounting mutation — charges, fault counts, and this reset — happens
// under the platform mutex, so no concurrent accessor can observe a torn
// half-reset where the fault counter is zeroed but the ledger still
// carries pre-reset charges.
func (m *Memory) ResetAccounting() {
	m.p.mu.Lock()
	m.faults = 0
	m.ledger.costs = [sim.MaxCauses]sim.Cycles{}
	m.ledger.events = [sim.MaxCauses]uint64{}
	m.ledger.total.Store(0)
	m.p.mu.Unlock()
}

// Accounting bundles the memory view and arena a data structure charges
// its simulated costs through. The zero value means "unaccounted": the
// structure runs as plain Go data with no simulated-cost bookkeeping.
// Consumer packages (kvstore, fsshield, eventbus) alias this type.
type Accounting struct {
	Mem   *Memory
	Arena *Arena
}

// Enabled reports whether both halves of the accounting wiring are set.
func (a Accounting) Enabled() bool { return a.Mem != nil && a.Arena != nil }

// Arena is a bump allocator handing out simulated addresses from a fixed
// region of one Memory view. Data-structure nodes in the higher layers
// carry these addresses so their traversals can be charged to the memory
// model. Records are bumped upward from the base (Alloc); side tables that
// must not disturb the records' address sequence are carved downward from
// the end (AllocTail). The arena never takes storage back: a structure
// that deletes keeps its own free list of the addresses it was given.
type Arena struct {
	mem  *Memory
	base uint64
	next uint64 // first free byte of the bump side
	tail uint64 // first used byte of the tail side
	end  uint64
}

// NewArena returns an arena over [base, base+size).
func NewArena(mem *Memory, base, size uint64) *Arena {
	return &Arena{mem: mem, base: base, next: base, tail: base + size, end: base + size}
}

// Alloc reserves size bytes (8-byte aligned) and returns the address.
// It panics when the region is exhausted — a simulated out-of-memory.
func (a *Arena) Alloc(size int) uint64 {
	if size <= 0 {
		size = 1
	}
	addr := a.next
	next := align(a.next+uint64(size), 8)
	if next > a.tail {
		a.exhausted(next - a.base + a.end - a.tail)
	}
	a.next = next
	return addr
}

// AllocTail reserves size bytes (8-byte aligned) at the high end of the
// region, below every earlier tail allocation, and returns the address.
// The bump side's address sequence is unaffected. Like Alloc it panics
// when the two sides would meet.
func (a *Arena) AllocTail(size int) uint64 {
	if size <= 0 {
		size = 1
	}
	tail := (a.tail - uint64(size)) &^ 7
	if uint64(size) > a.tail-a.next || tail < a.next {
		a.exhausted(a.Used() + uint64(size))
	}
	a.tail = tail
	return tail
}

func (a *Arena) exhausted(want uint64) {
	panic(fmt.Sprintf("enclave: arena exhausted at %d bytes (capacity %d)", want, a.Capacity()))
}

// Memory returns the accounting view this arena allocates from.
func (a *Arena) Memory() *Memory { return a.mem }

// Used returns the number of bytes allocated so far, bump and tail sides
// together.
func (a *Arena) Used() uint64 { return a.next - a.base + a.end - a.tail }

// Capacity returns the total arena size in bytes.
func (a *Arena) Capacity() uint64 { return a.end - a.base }
