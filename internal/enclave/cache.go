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
// Layout: a directory of fixed-size chunks, each holding chunkSets
// consecutive sets of assoc+1 words — the set's recency order, then its
// ways' complemented tags — so a 16-way set is 136 B of contiguous host
// memory, and a hit on one of a set's first ways reads one host cache
// line. A chunk is allocated the first time an access touches one of its
// sets; until then every reader treats it as all empty ways. Tags are
// stored complemented so the zero way is the empty way (real tags are
// addr/lineSize and never all ones), and a platform pays only for the
// sets it touches (one enclave touches a few thousand of the default
// 8192).
//
// The order word holds one nibble per way: nibble 0 names the most
// recently used way and nibble assoc-1 the least, so assoc is at most 16.
// A hit on the MRU way is one compare and changes nothing; any other hit
// moves its way's nibble to the front. A miss fills the first empty way
// by index, else the LRU way, and moves it to the front. Every touch
// moves its way to the front, so once a set is full its order is the
// order of last use — exactly classic LRU — and an empty way's place in
// the order never matters.
//
// Liveness is exact: lines holds, per page, a bitmap of the page's lines
// that are cached (bit i is line i of the page, so a page holds at most
// 64 lines). A fill sets its line's bit and clears the evicted victim's;
// invalidatePage (EWB) empties only the ways its page's bits name. The
// bitmaps are also the read-only view of the cache: a snapshot span
// (Span.probe) reads whether a line is cached from its page's bitmap, a
// page of lines at a time, and never scans a set's ways.
//
// The geometry is all powers of two (NewPlatform enforces it): a tag's set
// is a mask of it, its chunk a shift of the set, and its page a shift.
type llc struct {
	setMask  uint64 // number of sets - 1
	lppShift uint8  // log2(pageSize/lineSize)
	lppMask  uint64 // pageSize/lineSize - 1: a tag's line within its page
	assoc    int
	// chunks[s>>chunkShift] holds set s, or is nil while no access has
	// touched any set of that chunk.
	chunks [][]uint64
	// chunkWords is the length of one chunk: its set count times assoc+1.
	chunkWords int
	lines      pageTable[uint64] // per-page bitmaps of cached lines
}

const (
	// chunkShift is log2 of chunkSets, the sets one chunk holds.
	chunkShift = 4
	chunkSets  = 1 << chunkShift
	// nibbles has a one in every nibble: times a way index, it repeats
	// the index across an order word.
	nibbles = 0x1111111111111111
)

// newLLC builds a cache of llcSets(totalBytes, lineSize, assoc) sets with
// no chunk allocated.
func newLLC(totalBytes, lineSize, pageSize uint64, assoc int) *llc {
	numSets := llcSets(totalBytes, lineSize, assoc)
	lpp := pageSize / lineSize
	return &llc{
		setMask:    numSets - 1,
		lppShift:   uint8(bits.TrailingZeros64(lpp)),
		lppMask:    lpp - 1,
		assoc:      assoc,
		chunks:     make([][]uint64, (numSets+chunkSets-1)/chunkSets),
		chunkWords: int(min(numSets, chunkSets)) * (assoc + 1),
		lines:      newPageTable[uint64](pageSize),
	}
}

// llcSets is the set count of a cache of totalBytes in lineSize lines,
// assoc ways per set.
func llcSets(totalBytes, lineSize uint64, assoc int) uint64 {
	return totalBytes / lineSize / uint64(assoc)
}

// setOf returns set s within its chunk ch: the order word, then assoc
// tag words.
func (c *llc) setOf(ch []uint64, s uint64) []uint64 {
	base := int(s&(chunkSets-1)) * (c.assoc + 1)
	return ch[base : base+c.assoc+1]
}

// newChunk allocates the chunk of set s, every way empty and every order
// word listing the ways by index.
func (c *llc) newChunk(s uint64) []uint64 {
	ch := make([]uint64, c.chunkWords)
	ident := uint64(0xFEDCBA9876543210) & (uint64(1)<<(4*c.assoc) - 1)
	for i := 0; i < len(ch); i += c.assoc + 1 {
		ch[i] = ident
	}
	c.chunks[s>>chunkShift] = ch
	return ch
}

// accessTag touches the line of tag (addr/lineSize) and reports whether
// it hit.
func (c *llc) accessTag(tag uint64) bool {
	s := tag & c.setMask
	ch := c.chunks[s>>chunkShift]
	if ch == nil {
		ch = c.newChunk(s)
	}
	set := c.setOf(ch, s)
	ways, order := set[1:], &set[0]
	key := ^tag
	if ways[*order&15] == key {
		return true // the MRU way: already at the front
	}
	for i, k := range ways {
		if k == key {
			*order = toFront(*order, i)
			return true
		}
	}
	victim := -1
	for i, k := range ways {
		if k == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = int(*order >> (4 * (c.assoc - 1)) & 15)
		old := ^ways[victim]
		*c.lines.slot(old >> c.lppShift) &^= 1 << (old & c.lppMask)
	}
	ways[victim] = key
	*order = toFront(*order, victim)
	*c.lines.slot(tag >> c.lppShift) |= 1 << (tag & c.lppMask)
	return false
}

// toFront moves way w's nibble to the front of order, shifting the
// nibbles before it back one place. It finds w's place with a SWAR
// zero-nibble search of order^(w in every nibble): the subtraction's
// borrows can only flag nibbles above a true zero, and w is listed once,
// so the lowest flag is its place.
func toFront(order uint64, w int) uint64 {
	x := order ^ uint64(w)*nibbles
	at := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	before := order & (uint64(1)<<at - 1)
	after := order &^ (uint64(1)<<(at+4) - 1)
	return after | before<<4 | uint64(w)
}

// invalidatePage flushes all cached lines of one page, mirroring EWB: SGX
// evicts and re-encrypts whole EPC pages. It empties the way of each line
// the page's bitmap names and leaves the order words alone: an empty way
// is refilled by index, whatever its place in the order.
func (c *llc) invalidatePage(page uint64) {
	m := c.lines.get(page)
	if m == 0 {
		return
	}
	for ; m != 0; m &= m - 1 {
		tag := page<<c.lppShift | uint64(bits.TrailingZeros64(m))
		s := tag & c.setMask
		ways := c.setOf(c.chunks[s>>chunkShift], s)[1:]
		for i, k := range ways {
			if k == ^tag {
				ways[i] = 0
				break
			}
		}
	}
	*c.lines.slot(page) = 0
}
