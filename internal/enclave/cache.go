package enclave

import "math/bits"

// llc is a set-associative last-level-cache simulator with LRU replacement
// within each set. It tracks which cache lines are present so the memory
// model can decide whether an access is served by the cache (same cost in
// and out of an enclave) or goes to memory (where the MEE tax applies
// inside enclaves).
//
// The simulator is shared between the trusted and untrusted views of one
// platform, mirroring hardware: enclave and normal lines compete for the
// same physical cache.
//
// Layout: one flat array of per-way records (tag, last-use stamp, insert
// epoch) indexed by set*assoc+way, so probing a set walks a single
// contiguous block of host memory. The hit path is a single-compare scan
// plus one page-epoch check; a hit updates one stamp (no memmove into
// recency order). Eviction picks the way with the minimum stamp — exactly
// classic LRU.
//
// Invalidation is lazy: invalidatePage bumps a per-page epoch instead of
// scanning sets for every tag of the page. A way whose recorded epoch no
// longer matches its page's current epoch is dead — it never hits, and the
// victim scan treats it like an empty way (stamp 0). Dead ways are
// observationally identical to eagerly-cleared ways, so hit/miss and
// eviction sequences — and with them all simulated cycle counts — are
// unchanged; but flushing an EPC page costs one counter bump instead of a
// scan of a page's worth of sets.
//
// The geometry is all powers of two (NewPlatform enforces it): a tag's set
// is a mask of it and its page a shift.
type llc struct {
	lineSize uint64
	pageSize uint64
	setMask  uint64 // number of sets - 1
	lppShift uint8  // log2(pageSize/lineSize)
	assoc    int
	ways     []llcWay
	// hints[s] is the way of set s that hit or filled most recently.
	// Probing it first turns the common re-touch of a hot line into a
	// single compare; it is only a scan-order shortcut for the equality
	// search, so LRU state evolves identically with or without it.
	hints []uint8
	tick  uint64

	epochs pageTable[uint32] // per-page invalidation epochs
}

// llcWay is the metadata of one cache way, packed to 16 bytes so one
// 16-way set spans four host cache lines: the tag, and a second word
// holding the last-use stamp (high 40 bits) next to the insert-time page
// epoch (low 24 bits).
type llcWay struct {
	tag uint64
	se  uint64 // stamp<<epochBits | (epoch & epochMask); stamp 0 = empty
}

const (
	epochBits = 24
	epochMask = (1 << epochBits) - 1
	// maxStamp bounds the use-time counter; reaching it triggers a
	// renormalization that compresses every set's stamps to their ranks
	// (order-preserving, so LRU behaviour is unchanged). A 40-bit stamp
	// lasts ~10^12 accesses between renormalizations.
	maxStamp = (uint64(1) << 40) - 1
)

// emptyTag marks a free way. Real tags are addr/lineSize and cannot reach
// it (that would need an address in the top line of the address space).
const emptyTag = ^uint64(0)

// newLLC builds a cache of llcSets(totalBytes, lineSize, assoc) sets.
func newLLC(totalBytes, lineSize, pageSize uint64, assoc int) *llc {
	numSets := llcSets(totalBytes, lineSize, assoc)
	ways := make([]llcWay, numSets*uint64(assoc))
	for i := range ways {
		ways[i].tag = emptyTag
	}
	return &llc{
		lineSize: lineSize,
		pageSize: pageSize,
		setMask:  numSets - 1,
		lppShift: uint8(bits.TrailingZeros64(pageSize / lineSize)),
		assoc:    assoc,
		ways:     ways,
		hints:    make([]uint8, numSets),
		epochs:   newPageTable[uint32](pageSize),
	}
}

// llcSets is the set count of a cache of totalBytes in lineSize lines,
// assoc ways per set.
func llcSets(totalBytes, lineSize uint64, assoc int) uint64 {
	return totalBytes / lineSize / uint64(assoc)
}

// pageEpoch returns the current invalidation epoch of page.
func (c *llc) pageEpoch(page uint64) uint32 { return c.epochs.get(page) }

// tagPage returns the page of a way's line, derived from its tag.
func (c *llc) tagPage(tag uint64) uint64 { return tag >> c.lppShift }

// access touches the line containing addr and reports whether it hit.
func (c *llc) access(addr uint64) bool {
	return c.accessTag(addr/c.lineSize, addr/c.pageSize)
}

// accessTag is the hot-path form of access: the caller already knows the
// line tag and the page, so no divisions are repeated here.
func (c *llc) accessTag(tag, page uint64) bool {
	pe := uint64(c.pageEpoch(page)) & epochMask
	s := tag & c.setMask
	base := int(s) * c.assoc
	set := c.ways[base : base+c.assoc]
	if c.tick >= maxStamp-1 {
		c.renormalizeStamps()
	}
	c.tick++
	se := c.tick<<epochBits | pe
	if h := c.hints[s]; int(h) < len(set) {
		if w := &set[h]; w.tag == tag && w.se&epochMask == pe {
			w.se = se
			return true
		}
	}
	for i := range set {
		if set[i].tag == tag {
			if set[i].se&epochMask != pe {
				continue // dead way: invalidated since insert
			}
			set[i].se = se
			c.hints[s] = uint8(i)
			return true
		}
	}
	// Miss: evict the LRU way. Empty and dead ways count as stamp 0 and
	// are chosen before any live line.
	victim := 0
	min := ^uint64(0)
	for i := range set {
		st := set[i].se >> epochBits
		if st != 0 && set[i].se&epochMask != uint64(c.pageEpoch(c.tagPage(set[i].tag)))&epochMask {
			st = 0 // dead way: as good as empty
		}
		if st < min {
			min, victim = st, i
			if st == 0 {
				break // nothing beats an empty way, and ties pick the first
			}
		}
	}
	set[victim] = llcWay{tag: tag, se: se}
	c.hints[s] = uint8(victim)
	return false
}

// probeTag reports whether the line is cached without touching any cache
// state: no stamp update, no tick, no fill, no hint move. It is the
// read-only twin of accessTag used by snapshot accounting spans — safe to
// call concurrently from many goroutines provided no mutating access runs
// at the same time (callers serialize mutators externally).
func (c *llc) probeTag(tag, page uint64) bool {
	pe := uint64(c.pageEpoch(page)) & epochMask
	s := tag & c.setMask
	base := int(s) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if set[i].tag == tag {
			// Live iff its insert epoch matches the page's current epoch
			// and the way is non-empty (stamp != 0).
			return set[i].se>>epochBits != 0 && set[i].se&epochMask == pe
		}
	}
	return false
}

// renormalizeStamps compresses every set's stamps to their within-set rank
// (1..assoc), preserving relative order — and therefore LRU behaviour —
// exactly, then rewinds the tick. Runs once per ~10^12 accesses.
func (c *llc) renormalizeStamps() {
	orig := make([]uint64, c.assoc)
	for base := 0; base < len(c.ways); base += c.assoc {
		set := c.ways[base : base+c.assoc]
		for i := range set {
			orig[i] = set[i].se >> epochBits
		}
		// Rank assignment: a live way's new stamp is 1 + the number of
		// live ways in its set with a strictly smaller original stamp.
		for i := range set {
			if orig[i] == 0 {
				continue
			}
			rank := uint64(1)
			for j := range orig {
				if orig[j] != 0 && orig[j] < orig[i] {
					rank++
				}
			}
			set[i].se = rank<<epochBits | set[i].se&epochMask
		}
	}
	c.tick = uint64(c.assoc)
}

// invalidatePage flushes all cached lines of one page: a single epoch bump.
// Invalidation is page-granular, mirroring EWB: SGX evicts and re-encrypts
// whole EPC pages. Ways store epochs truncated to epochBits, so just before
// a page's epoch would wrap back into an in-use value its stale ways are
// cleared eagerly and its epoch rewinds to zero — dead lines can never
// resurrect.
func (c *llc) invalidatePage(page uint64) {
	e := c.epochs.slot(page)
	if *e >= epochMask-1 {
		c.purgePage(page)
		*e = 0
		return
	}
	*e++
}

// purgePage eagerly empties every way holding a line of page. Runs once per
// ~16.7M invalidations of one page, keeping the lazy epoch scheme exact
// across epoch wrap-around.
func (c *llc) purgePage(page uint64) {
	for i := range c.ways {
		if w := &c.ways[i]; w.tag != emptyTag && c.tagPage(w.tag) == page {
			w.tag = emptyTag
			w.se = 0
		}
	}
}

// lines returns the number of live resident lines (test hook).
func (c *llc) lines() int {
	n := 0
	for i := range c.ways {
		w := &c.ways[i]
		if w.tag != emptyTag && w.se>>epochBits != 0 &&
			w.se&epochMask == uint64(c.pageEpoch(c.tagPage(w.tag)))&epochMask {
			n++
		}
	}
	return n
}
