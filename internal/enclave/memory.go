package enclave

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"securecloud/internal/sim"
)

// Memory is an accounting view of the platform memory hierarchy for one
// protection domain: either the inside of a specific enclave or the
// untrusted world. Higher layers run ordinary Go data structures but route
// a simulated AccessRange for every logical memory touch; the view charges
// cache, MEE and paging costs into its ledger — the one record of
// simulated cost.
//
// Accounting is batched: each AccessRange, and each Span of any number of
// accesses, walks its cache lines accumulating per-cause event counts in
// locals and commits once — one ledger charge per batch instead of per
// line. The committed totals are bit-identical to per-line charging
// because every per-event cost is a fixed platform constant.
type Memory struct {
	p   *Platform
	enc *Enclave // nil for the untrusted view

	// span is the view's one mutating span, bound by BeginSpan and reset by
	// End, both under p.mu, which a mutating span holds throughout.
	span Span

	ledger ledger
	// faults counts page faults (EPC faults inside, minor faults outside);
	// touched flags the pages the untrusted view has touched. Both are
	// guarded by p.mu.
	faults  uint64
	touched pageTable[bool]
}

// ledger is Memory's per-cause accounting store. All mutations happen with
// the platform mutex held — one lock discipline for every counter this view
// owns — while the running total is additionally kept atomically so the
// hot Cycles() read never takes a lock.
type ledger struct {
	total  atomic.Uint64
	costs  [numCauses]sim.Cycles
	events [numCauses]uint64
}

// addLocked records events occurrences of cause costing cost in total.
// Caller holds p.mu.
func (l *ledger) addLocked(c cause, cost sim.Cycles, events uint64) {
	l.costs[c] += cost
	l.events[c] += events
	l.total.Add(uint64(cost))
}

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
// The walk goes page by page — one residency touch per page, with the
// inner loop iterating line tags directly.
func (m *Memory) accessLocked(st *acct, addr uint64, size int) {
	p := m.p
	first := addr >> p.lineShift
	last := (addr + uint64(size) - 1) >> p.lineShift
	inside := m.enc != nil
	if first == last {
		// Single-line access: the dominant case for data-structure probes.
		page := first >> p.lppShift
		m.touchPageLocked(st, page)
		if p.cache.accessTag(first) {
			st.hits++
		} else if inside {
			st.mee++
		} else {
			st.dram++
		}
		return
	}
	for l := first; l <= last; {
		page := l >> p.lppShift
		m.touchPageLocked(st, page)
		end := min((page+1)<<p.lppShift-1, last) // last tag on this page
		for ; l <= end; l++ {
			if p.cache.accessTag(l) {
				st.hits++
			} else if inside {
				st.mee++
			} else {
				st.dram++
			}
		}
	}
}

// commitLocked charges the accumulated batch: one ledger commit and one
// fault update. Caller holds p.mu.
func (m *Memory) commitLocked(st *acct) {
	cost := m.p.cfg.Cost
	add := func(c cause, cycles sim.Cycles, events uint64) {
		if events > 0 {
			m.ledger.addLocked(c, cycles, events)
		}
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

// Span is an open accounting batch over one Memory view: an arbitrary
// sequence of accesses and CPU charges — e.g. one whole index traversal —
// accumulated under a single platform-lock acquisition and committed once
// by End. Cache and paging state evolve access by access exactly as with
// individual calls; only the lock round-trips and ledger commits collapse.
// The platform mutex is held from BeginSpan to End, so spans must be
// short-lived, must not nest, and must not call other Memory or Platform
// methods. Counters read by other goroutines (Cycles, Faults) only reflect
// a span after End.
//
// A nil *Span is the span of an unaccounted structure: its methods charge
// nothing, and a nil *Memory's BeginSpan and BeginSnapshotSpan return it.
type Span struct {
	m  *Memory
	st acct

	// ro marks a snapshot span: accesses probe the frozen cache and
	// residency state without mutating it (see BeginSnapshotSpan). seen is
	// the span-local overlay: per page this span already touched, the
	// bitmap of the page's lines it touched. A page in seen behaves as
	// resident, and a line in its bitmap as cached, for the rest of the
	// span, exactly as they would after a mutating first touch. seen is
	// generation-stamped, so End empties it in O(1) and a pooled span
	// keeps its grown table.
	ro   bool
	seen pageLines
}

// BeginSpan opens a span. Every span must be closed with End. The span is
// the view's own, reused by every BeginSpan, so it allocates nothing.
func (m *Memory) BeginSpan() *Span {
	if m == nil {
		return nil
	}
	m.p.mu.Lock()
	m.span.m = m
	return &m.span
}

// newSnapshotSpan returns an unbound snapshot span with an empty overlay
// sized for one index traversal; it grows on demand.
func newSnapshotSpan() *Span {
	return &Span{ro: true, seen: newPageLines(128)}
}

// roSpanPool recycles snapshot spans, overlay table included, since the
// concurrent match path opens one per operation. End resets a span's
// overlay by bumping its generation, never by clearing the table.
var roSpanPool = sync.Pool{New: func() any { return newSnapshotSpan() }}

// BeginSnapshotSpan opens a read-only accounting span: every Access is
// charged against the platform's current cache and residency state as a
// pure probe — no LRU order moves, no CLOCK bits flip, no pages load — so
// the global simulation state is bit-identical before and after the span.
// A probe works a page at a time: the LLC's per-page bitmap of cached
// lines, or'ed with the span's own overlay bitmap of the lines it already
// touched, answers every line of the access on that page at once. So
// re-touches of the same line or page within the span behave as hits,
// mirroring what a mutating first touch would have made them; evictions a
// real execution might trigger are deferred (never modeled), which is the
// documented snapshot approximation.
//
// Because snapshot spans mutate nothing, any interleaving of concurrent
// snapshot spans charges the same totals — the property the sharded SCBR
// broker relies on for deterministic parallel matching. The platform mutex
// is only taken briefly by End to commit the ledger; the probe phase runs
// lock-free. Callers must therefore guarantee no mutating access (ordinary
// AccessRange/Span, EEnter, allocation) runs on this platform while a snapshot
// span is open — e.g. by holding the read side of a lock whose write side
// covers all mutators.
func (m *Memory) BeginSnapshotSpan() *Span {
	if m == nil {
		return nil
	}
	sp := roSpanPool.Get().(*Span)
	sp.m = m
	return sp
}

// Access records one access of size bytes at addr within the span. Reads
// and writes cost the same in this model.
func (sp *Span) Access(addr uint64, size int) {
	if sp == nil || size <= 0 {
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
func (sp *Span) AccessCPU(addr uint64, size int, cpu sim.Cycles) {
	if sp == nil {
		return
	}
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
	if sp != nil && c > 0 {
		sp.st.cpu += c
		sp.st.cpuN++
	}
}

// probe accounts [addr, addr+size) read-only against frozen platform state
// plus the span-local overlay, one page at a time. The access's lines on a
// page are a mask of that page's line bits; a line hits when the span has
// already touched it or the LLC holds it, and the lines of one access are
// distinct, so the page's hits are one popcount — the count a line-by-line
// walk would reach.
func (sp *Span) probe(addr uint64, size int) {
	m := sp.m
	p := m.p
	c := p.cache
	first := addr >> p.lineShift
	last := (addr + uint64(size) - 1) >> p.lineShift
	for first <= last {
		page := first >> p.lppShift
		end := min((page+1)<<p.lppShift-1, last) // last tag on this page
		lo, hi := first&c.lppMask, end&c.lppMask
		mask := ^uint64(0) >> (63 - hi) &^ (1<<lo - 1) // lines lo..hi of the page
		seen, fresh := sp.seen.touch(page)
		if fresh {
			sp.probePage(page)
		}
		hits := uint64(bits.OnesCount64(mask & (*seen | c.lines.get(page))))
		misses := uint64(bits.OnesCount64(mask)) - hits
		*seen |= mask
		sp.st.hits += hits
		if m.enc != nil {
			sp.st.mee += misses
		} else {
			sp.st.dram += misses
		}
		first = end + 1
	}
}

// probePage accounts residency for the span's first touch of a page
// read-only: a non-resident page charges a fault; afterwards the overlay
// holds the page, so it is locally resident.
func (sp *Span) probePage(page uint64) {
	m := sp.m
	if m.enc != nil {
		if !m.p.pager.isResident(page) {
			sp.st.epcF++
		}
		return
	}
	if !m.touched.get(page) {
		sp.st.minorF++
	}
}

// End commits the span's accumulated accounting and releases the platform,
// leaving the span unbound with zero counts for its next use. Snapshot
// spans take the platform mutex only here, for the commit itself, and are
// recycled.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	if sp.ro {
		sp.endSnapshot()
		roSpanPool.Put(sp)
		return
	}
	m := sp.m
	m.commitLocked(&sp.st)
	sp.m = nil
	sp.st = acct{}
	m.p.mu.Unlock()
}

// endSnapshot commits a snapshot span under the platform mutex and leaves
// it unbound with an empty overlay, ready to be bound to any view again.
func (sp *Span) endSnapshot() {
	m := sp.m
	m.p.mu.Lock()
	m.commitLocked(&sp.st)
	m.p.mu.Unlock()
	sp.m = nil
	sp.st = acct{}
	sp.seen.reset()
}

// pageLines is the snapshot overlay: an open-addressed table, probed
// linearly from a multiplicative hash of the page number, that maps each
// page the span touched to the bitmap of its lines the span touched (bit i
// is line i of the page; NewPlatform allows at most 64 lines a page). A
// slot holds a page only while its stamp equals the table's generation, so
// reset empties the table by bumping gen, without touching it; when gen
// wraps to 0, reset clears the table once, so a slot stamped 2^32 resets
// earlier cannot come back to life. The table doubles at half full and
// keeps its size across resets.
type pageLines struct {
	slots []pageLinesSlot
	shift uint // 64 - log2(len(slots))
	n     int  // pages in the current generation
	gen   uint32
}

type pageLinesSlot struct {
	page  uint64
	lines uint64
	gen   uint32
}

// newPageLines returns an empty table of size slots (a power of two).
func newPageLines(size int) pageLines {
	return pageLines{slots: make([]pageLinesSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size))), gen: 1}
}

// touch returns page's line bitmap for update, inserting the page with an
// empty bitmap when it is absent, and reports whether it was absent.
func (s *pageLines) touch(page uint64) (*uint64, bool) {
	mask := len(s.slots) - 1
	for i := int((page * 0x9E3779B97F4A7C15) >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			if 2*(s.n+1) > len(s.slots) {
				s.grow()
				return s.touch(page)
			}
			*sl = pageLinesSlot{page: page, gen: s.gen}
			s.n++
			return &sl.lines, true
		}
		if sl.page == page {
			return &sl.lines, false
		}
	}
}

// grow doubles the table and re-inserts the current generation's pages
// with their bitmaps.
func (s *pageLines) grow() {
	old := s.slots
	*s = pageLines{slots: make([]pageLinesSlot, 2*len(old)), shift: s.shift - 1, gen: s.gen}
	for _, sl := range old {
		if sl.gen == s.gen {
			lines, _ := s.touch(sl.page)
			*lines = sl.lines
		}
	}
}

// reset empties the table in O(1).
func (s *pageLines) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
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
	if t := m.touched.slot(page); !*t {
		*t = true
		st.minorF++
	}
}

// charge records a single non-memory cost (transition, AEX, CPU) in the
// ledger.
func (m *Memory) charge(c cause, cycles sim.Cycles) {
	m.p.mu.Lock()
	m.ledger.addLocked(c, cycles, 1)
	m.p.mu.Unlock()
}

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
			out[causeNames[i]] = m.ledger.costs[i]
		}
	}
	return out
}

// Events returns how many times the named cause was charged to this view.
func (m *Memory) Events(name string) uint64 {
	i := slices.Index(causeNames[:], name)
	if i < 0 {
		return 0
	}
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	return m.ledger.events[i]
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
	m.ledger.costs = [numCauses]sim.Cycles{}
	m.ledger.events = [numCauses]uint64{}
	m.ledger.total.Store(0)
	m.p.mu.Unlock()
}

// Arena is a bump allocator handing out simulated addresses from a fixed
// region of one Memory view. Data-structure nodes in the higher layers
// carry these addresses so their traversals can be charged to the memory
// model. Records are bumped upward from the base (Alloc); side tables that
// must not disturb the records' address sequence are carved downward from
// the end (AllocTail). The arena never takes storage back: a structure
// that deletes keeps its own free list of the addresses it was given.
//
// A nil *Arena is the arena of an unaccounted structure: Alloc and
// AllocTail return address 0 and Memory returns a nil view, whose spans
// charge nothing.
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
	if a == nil {
		return 0
	}
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
	if a == nil {
		return 0
	}
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
func (a *Arena) Memory() *Memory {
	if a == nil {
		return nil
	}
	return a.mem
}

// Used returns the number of bytes allocated so far, bump and tail sides
// together.
func (a *Arena) Used() uint64 { return a.next - a.base + a.end - a.tail }

// Capacity returns the total arena size in bytes.
func (a *Arena) Capacity() uint64 { return a.end - a.base }
