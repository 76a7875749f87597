package enclave

// epc simulates the enclave page cache: the limited pool of physically
// protected memory that all enclaves on a platform share. SGX v1 provisions
// 128 MiB of processor-reserved memory, of which a substantial slice is
// consumed by the enclave page cache map (EPCM) and other SGX metadata —
// which is why, as the paper observes, "the performance drop is evident
// before" the 128 MB line.
//
// Replacement is CLOCK (second chance), approximating the Linux SGX
// driver's reclaim behaviour.
//
// Residency lives in a pageTable of ring slot + 1, so a page never loaded
// reads as 0: "not resident".
//
// The ring grows as it is used: a slot is appended the first time the
// hand reaches it, up to capacity. The hand visits slots in ring order and
// a slot it has never reached is free, so growth changes no load, victim
// or residency — a platform pays only for the EPC pages it loads.
type epc struct {
	pageSize uint64
	capacity int // usable pages

	slots    pageTable[uint32]
	resident int
	// lastPage/lastIdx memoize the most recent resident hit so repeated
	// touches of one page (consecutive probes of the same node) skip the
	// page-table lookup. lastIdx is -1 when invalid.
	lastPage uint64
	lastIdx  int32
	// The CLOCK ring, split into parallel arrays: refd is the hot byte the
	// touch fast path sets (kept dense so it stays cache-resident), pages
	// and occupied are only read when the hand sweeps. All three hold the
	// slots the hand has reached so far.
	pages    []uint64
	refd     []bool
	occupied []bool
	hand     int

	evictions uint64
	loads     uint64
}

func newEPC(totalBytes, reservedBytes, pageSize uint64) *epc {
	usable := int64(totalBytes) - int64(reservedBytes)
	if usable < int64(pageSize) {
		usable = int64(pageSize)
	}
	cap := int(uint64(usable) / pageSize)
	return &epc{
		pageSize: pageSize,
		capacity: cap,
		slots:    newPageTable[uint32](pageSize),
		lastIdx:  -1,
	}
}

// growSlot appends one zero slot to a ring array, doubling its capacity
// when full but never past capacity slots. The arrays never shrink, so the
// slot past len is still zero.
func growSlot[T uint64 | bool](s []T, capacity int) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), min(max(2*len(s), 64), capacity))
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+1]
}

// lookup returns the ring slot of page, or -1 when not resident.
func (e *epc) lookup(page uint64) int32 { return int32(e.slots.get(page)) - 1 }

// touch ensures the page containing addr is EPC-resident. It returns
// (faulted, evictedPage, evictedValid): faulted is true when the page had to
// be loaded (an EPC page fault in SGX terms), and evictedPage identifies a
// victim page written back to untrusted memory, if any.
func (e *epc) touch(addr uint64) (faulted bool, evicted uint64, evictedValid bool) {
	return e.touchPage(addr / e.pageSize)
}

// touchPage is the hot-path form of touch for callers that already know
// the page number.
func (e *epc) touchPage(page uint64) (faulted bool, evicted uint64, evictedValid bool) {
	if e.lastIdx >= 0 && page == e.lastPage {
		e.refd[e.lastIdx] = true
		return false, 0, false
	}
	if idx := e.lookup(page); idx >= 0 {
		e.refd[idx] = true
		e.lastPage, e.lastIdx = page, idx
		return false, 0, false
	}
	e.loads++
	// Find a free or victim slot with CLOCK.
	for {
		h := e.hand
		if h == len(e.pages) {
			e.pages = growSlot(e.pages, e.capacity)
			e.refd = growSlot(e.refd, e.capacity)
			e.occupied = growSlot(e.occupied, e.capacity)
		}
		if !e.occupied[h] {
			e.pages[h], e.refd[h], e.occupied[h] = page, true, true
			*e.slots.slot(page) = uint32(h) + 1
			e.lastPage, e.lastIdx = page, int32(h)
			e.resident++
			e.hand = (h + 1) % e.capacity
			return true, 0, false
		}
		if e.refd[h] {
			e.refd[h] = false
			e.hand = (h + 1) % e.capacity
			continue
		}
		// Evict this page.
		evicted, evictedValid = e.pages[h], true
		*e.slots.slot(evicted) = 0
		e.evictions++
		e.pages[h], e.refd[h] = page, true
		*e.slots.slot(page) = uint32(h) + 1
		e.lastPage, e.lastIdx = page, int32(h)
		e.hand = (h + 1) % e.capacity
		return true, evicted, evictedValid
	}
}

// isResident reports whether page is EPC-resident without touching any
// replacement state: no reference bit, no memo update, no load. The
// read-only twin of touchPage used by snapshot accounting spans; safe for
// concurrent readers while mutators are externally serialized.
func (e *epc) isResident(page uint64) bool { return e.lookup(page) >= 0 }

// release drops all resident pages in [base, base+size), e.g. on EREMOVE
// when an enclave is destroyed.
func (e *epc) release(base, size uint64) {
	first := base / e.pageSize
	last := (base + size - 1) / e.pageSize
	for p := first; p <= last; p++ {
		if idx := e.lookup(p); idx >= 0 {
			e.pages[idx], e.refd[idx], e.occupied[idx] = 0, false, false
			*e.slots.slot(p) = 0
			e.resident--
		}
	}
	e.lastIdx = -1
}

// residentPages returns how many pages are currently resident.
func (e *epc) residentPages() int { return e.resident }
