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
// Layout: a directory of fixed-size chunks, each holding the per-way
// records (complemented tag, last-use stamp, insert epoch) of chunkSets
// consecutive sets, indexed by set*assoc+way within the chunk — 4 KiB at
// 16 ways — so probing a set walks a single contiguous block of host
// memory. A chunk is allocated the first time an access touches one of
// its sets; until then every reader treats it as all empty ways. Tags are
// stored complemented so the zero way is the empty way: a new chunk needs
// no fill, and a platform pays only for the sets it touches (one enclave
// touches a few thousand of the default 8192). The hit path is a
// single-compare scan plus one page-epoch check; a hit updates one stamp
// (no memmove into recency order). Eviction picks the way with the
// minimum stamp — exactly classic LRU.
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
// is a mask of it, its chunk a shift of the set, and its page a shift.
type llc struct {
	lineSize uint64
	pageSize uint64
	setMask  uint64 // number of sets - 1
	lppShift uint8  // log2(pageSize/lineSize)
	assoc    int
	// chunks[s>>chunkShift] holds the ways of set s, or is nil while no
	// access has touched any set of that chunk.
	chunks [][]llcWay
	// chunkWays is the length of one chunk: its set count times assoc.
	chunkWays int
	// hints[s] is the way of set s that hit or filled most recently.
	// Probing it first turns the common re-touch of a hot line into a
	// single compare; it is only a scan-order shortcut for the equality
	// search, so LRU state evolves identically with or without it.
	hints []uint8
	tick  uint64

	epochs pageTable[uint32] // per-page invalidation epochs
}

// llcWay is the metadata of one cache way, packed to 16 bytes so one
// 16-way set spans four host cache lines: the complemented tag (zero for
// an empty way; real tags are addr/lineSize and never all ones), and a
// second word holding the last-use stamp (high 40 bits) next to the
// insert-time page epoch (low 24 bits).
type llcWay struct {
	key uint64 // ^tag; 0 = empty
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
	// chunkShift is log2 of chunkSets, the sets one chunk holds.
	chunkShift = 4
	chunkSets  = 1 << chunkShift
)

// newLLC builds a cache of llcSets(totalBytes, lineSize, assoc) sets with
// no chunk allocated.
func newLLC(totalBytes, lineSize, pageSize uint64, assoc int) *llc {
	numSets := llcSets(totalBytes, lineSize, assoc)
	return &llc{
		lineSize:  lineSize,
		pageSize:  pageSize,
		setMask:   numSets - 1,
		lppShift:  uint8(bits.TrailingZeros64(pageSize / lineSize)),
		assoc:     assoc,
		chunks:    make([][]llcWay, (numSets+chunkSets-1)/chunkSets),
		chunkWays: int(min(numSets, chunkSets)) * assoc,
		hints:     make([]uint8, numSets),
		epochs:    newPageTable[uint32](pageSize),
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

// setOf returns the ways of set s within its chunk ch.
func (c *llc) setOf(ch []llcWay, s uint64) []llcWay {
	base := int(s&(chunkSets-1)) * c.assoc
	return ch[base : base+c.assoc]
}

// access touches the line containing addr and reports whether it hit.
func (c *llc) access(addr uint64) bool {
	return c.accessTag(addr/c.lineSize, addr/c.pageSize)
}

// accessTag is the hot-path form of access: the caller already knows the
// line tag and the page, so no divisions are repeated here.
func (c *llc) accessTag(tag, page uint64) bool {
	s := tag & c.setMask
	ch := c.chunks[s>>chunkShift]
	if ch == nil || c.tick >= maxStamp-1 {
		c.prepare(s)
		return c.accessTag(tag, page) // now takes the common path
	}
	set := c.setOf(ch, s)
	pe := uint64(c.pageEpoch(page)) & epochMask
	c.tick++
	se := c.tick<<epochBits | pe
	key := ^tag
	if h := c.hints[s]; int(h) < len(set) {
		if w := &set[h]; w.key == key && w.se&epochMask == pe {
			w.se = se
			return true
		}
	}
	for i := range set {
		if set[i].key == key {
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
		if st != 0 && set[i].se&epochMask != uint64(c.pageEpoch(c.tagPage(^set[i].key)))&epochMask {
			st = 0 // dead way: as good as empty
		}
		if st < min {
			min, victim = st, i
			if st == 0 {
				break // nothing beats an empty way, and ties pick the first
			}
		}
	}
	set[victim] = llcWay{key: key, se: se}
	c.hints[s] = uint8(victim)
	return false
}

// prepare is accessTag's one cold path: it renormalizes the stamps before
// the tick would overflow, and allocates set s's chunk on its first
// access. accessTag calls it and retries, so the two rare cases share one
// out-of-line call and the common access keeps its state in registers.
func (c *llc) prepare(s uint64) {
	if c.tick >= maxStamp-1 {
		c.renormalizeStamps()
	}
	if c.chunks[s>>chunkShift] == nil {
		c.chunks[s>>chunkShift] = make([]llcWay, c.chunkWays)
	}
}

// probeTag reports whether the line is cached without touching any cache
// state: no stamp update, no tick, no fill, no hint move, and no chunk
// allocation — an unallocated chunk holds no line. It is the read-only
// twin of accessTag used by snapshot accounting spans — safe to call
// concurrently from many goroutines provided no mutating access runs at
// the same time (callers serialize mutators externally).
func (c *llc) probeTag(tag, page uint64) bool {
	s := tag & c.setMask
	ch := c.chunks[s>>chunkShift]
	if ch == nil {
		return false
	}
	pe := uint64(c.pageEpoch(page)) & epochMask
	key := ^tag
	for _, w := range c.setOf(ch, s) {
		if w.key == key {
			// Live iff its insert epoch matches the page's current epoch
			// and the way is non-empty (stamp != 0).
			return w.se>>epochBits != 0 && w.se&epochMask == pe
		}
	}
	return false
}

// renormalizeStamps compresses every set's stamps to their within-set rank
// (1..assoc), preserving relative order — and therefore LRU behaviour —
// exactly, then rewinds the tick. Runs once per ~10^12 accesses. Sets of
// unallocated chunks hold no stamps.
func (c *llc) renormalizeStamps() {
	orig := make([]uint64, c.assoc)
	for _, ch := range c.chunks {
		for base := 0; base < len(ch); base += c.assoc {
			set := ch[base : base+c.assoc]
			for i := range set {
				orig[i] = set[i].se >> epochBits
			}
			// Rank assignment: a live way's new stamp is 1 + the number
			// of live ways in its set with a strictly smaller original
			// stamp.
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
	for _, ch := range c.chunks {
		for i := range ch {
			if w := &ch[i]; w.key != 0 && c.tagPage(^w.key) == page {
				*w = llcWay{}
			}
		}
	}
}

// lines returns the number of live resident lines (test hook).
func (c *llc) lines() int {
	n := 0
	for _, ch := range c.chunks {
		for _, w := range ch {
			if w.key != 0 && w.se>>epochBits != 0 &&
				w.se&epochMask == uint64(c.pageEpoch(c.tagPage(^w.key)))&epochMask {
				n++
			}
		}
	}
	return n
}
