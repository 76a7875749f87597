package enclave

import (
	"fmt"
	"math/bits"
	"testing"

	"securecloud/internal/sim"
)

// flatLLC is the reference model of llc: the same LRU cache built the
// other way. Every set's ways sit in one flat array allocated up front,
// empty ways marked by a reserved tag; each way records a last-use stamp,
// eviction takes the minimum stamp, and a per-set hint of the last way to
// hit or fill is probed first. Invalidation is lazy: a page's epoch is
// bumped, and a way whose insert epoch no longer matches is dead — it
// never hits and counts as empty. TestPropChunkedLLCMatchesFlat holds llc
// and this model to identical hit/miss sequences and resident line
// counts.
type flatLLC struct {
	lineSize uint64
	pageSize uint64
	setMask  uint64
	lppShift uint8
	assoc    int
	ways     []flatWay
	hints    []uint8
	tick     uint64

	epochs pageTable[uint32]
}

type flatWay struct {
	tag uint64
	se  uint64 // stamp<<epochBits | (epoch & epochMask); stamp 0 = empty
}

const (
	// flatEmptyTag marks a free way of the flat model.
	flatEmptyTag = ^uint64(0)
	epochBits    = 24
	epochMask    = (1 << epochBits) - 1
	// maxStamp bounds the use-time counter; reaching it renormalizes
	// every set's stamps to their ranks, which preserves LRU order.
	maxStamp = (uint64(1) << 40) - 1
)

func newFlatLLC(totalBytes, lineSize, pageSize uint64, assoc int) *flatLLC {
	numSets := llcSets(totalBytes, lineSize, assoc)
	ways := make([]flatWay, numSets*uint64(assoc))
	for i := range ways {
		ways[i].tag = flatEmptyTag
	}
	return &flatLLC{
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

func (c *flatLLC) pageEpoch(page uint64) uint32 { return c.epochs.get(page) }

func (c *flatLLC) tagPage(tag uint64) uint64 { return tag >> c.lppShift }

func (c *flatLLC) accessTag(tag, page uint64) bool {
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
				continue
			}
			set[i].se = se
			c.hints[s] = uint8(i)
			return true
		}
	}
	victim := 0
	min := ^uint64(0)
	for i := range set {
		st := set[i].se >> epochBits
		if st != 0 && set[i].se&epochMask != uint64(c.pageEpoch(c.tagPage(set[i].tag)))&epochMask {
			st = 0
		}
		if st < min {
			min, victim = st, i
			if st == 0 {
				break
			}
		}
	}
	set[victim] = flatWay{tag: tag, se: se}
	c.hints[s] = uint8(victim)
	return false
}

func (c *flatLLC) probeTag(tag, page uint64) bool {
	pe := uint64(c.pageEpoch(page)) & epochMask
	s := tag & c.setMask
	base := int(s) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if set[i].tag == tag {
			return set[i].se>>epochBits != 0 && set[i].se&epochMask == pe
		}
	}
	return false
}

func (c *flatLLC) renormalizeStamps() {
	orig := make([]uint64, c.assoc)
	for base := 0; base < len(c.ways); base += c.assoc {
		set := c.ways[base : base+c.assoc]
		for i := range set {
			orig[i] = set[i].se >> epochBits
		}
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

func (c *flatLLC) invalidatePage(page uint64) {
	e := c.epochs.slot(page)
	if *e >= epochMask-1 {
		c.purgePage(page)
		*e = 0
		return
	}
	*e++
}

func (c *flatLLC) purgePage(page uint64) {
	for i := range c.ways {
		if w := &c.ways[i]; w.tag != flatEmptyTag && c.tagPage(w.tag) == page {
			w.tag = flatEmptyTag
			w.se = 0
		}
	}
}

func (c *flatLLC) lines() int {
	n := 0
	for i := range c.ways {
		w := &c.ways[i]
		if w.tag != flatEmptyTag && w.se>>epochBits != 0 &&
			w.se&epochMask == uint64(c.pageEpoch(c.tagPage(w.tag)))&epochMask {
			n++
		}
	}
	return n
}

// probeTag reports whether the line of tag is cached by scanning its
// set's ways, without touching any cache state — an unallocated chunk
// holds no line. It is the reference the per-page line bitmaps a snapshot
// span reads are checked against.
func (c *llc) probeTag(tag uint64) bool {
	s := tag & c.setMask
	ch := c.chunks[s>>chunkShift]
	if ch == nil {
		return false
	}
	key := ^tag
	for _, k := range c.setOf(ch, s)[1:] {
		if k == key {
			return true
		}
	}
	return false
}

// llcLines returns the number of resident lines of c.
func (c *llc) llcLines() int {
	n := 0
	for _, m := range c.resident() {
		n += bits.OnesCount64(m)
	}
	return n
}

// resident returns, per page, the bitmap of c's resident lines as its
// ways hold them.
func (c *llc) resident() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, ch := range c.chunks {
		for i, k := range ch {
			if k != 0 && i%(c.assoc+1) != 0 {
				m[^k>>c.lppShift] |= 1 << (^k & c.lppMask)
			}
		}
	}
	return m
}

// checkLineBitmaps fails unless every page's line bitmap names exactly
// the page's lines that c's ways hold.
func checkLineBitmaps(t *testing.T, c *llc, where string) {
	t.Helper()
	want := c.resident()
	check := func(page, got uint64) {
		if got != want[page] {
			t.Fatalf("%s: page %d line bitmap %#x, resident lines %#x", where, page, got, want[page])
		}
	}
	for page := range want {
		check(page, c.lines.get(page))
	}
	for page, v := range c.lines.low {
		check(uint64(page), v)
	}
	for off, v := range c.lines.high {
		check(c.lines.split+uint64(off), v)
	}
}

// TestPropChunkedLLCMatchesFlat drives the cache and the flat reference
// model with the same seeded mix of accessTag, probeTag and
// invalidatePage, and demands the same hit or miss and the same resident
// line count after every step, that every page's line bitmap names
// exactly its resident lines, and that the step's tag's bit in its page's
// bitmap — what a snapshot span reads — answers as the model's probe. Tags start at 0 — the tag whose raw value
// is the zero way — and half of them fall on one hot page so sets fill,
// evict and re-hit. Each run forces one epoch wrap of the model's hot
// page (purgePage) and one renormalization of its stamps; probes of
// chunks no access has touched yet come first.
func TestPropChunkedLLCMatchesFlat(t *testing.T) {
	const lineSize, pageSize, sets = 64, 4096, 128 // 8 chunks
	for _, assoc := range []int{1, 2, 4, 8, 12, 16} {
		for seed := int64(1); seed <= 2; seed++ {
			total := uint64(sets * assoc * lineSize)
			c := newLLC(total, lineSize, pageSize, assoc)
			f := newFlatLLC(total, lineSize, pageSize, assoc)
			r := sim.NewRand(seed*100 + int64(assoc))
			span := int64(4 * sets * assoc) // lines: 4x the cache
			purged, renormalized := false, false
			for step := 0; step < 3000; step++ {
				tag := uint64(r.Int63n(pageSize / lineSize)) // hot page 0
				if r.Intn(2) == 0 {
					tag = uint64(r.Int63n(span))
				}
				page := tag * lineSize / pageSize
				var op string
				var got, want bool
				switch k := r.Intn(10); {
				case step < 8 || k < 3:
					op = "probe"
					got, want = c.probeTag(tag), f.probeTag(tag, page)
				case k < 9:
					op = "access"
					got, want = c.accessTag(tag), f.accessTag(tag, page)
				default:
					op = "invalidate"
					c.invalidatePage(page)
					f.invalidatePage(page)
				}
				if got != want {
					t.Fatalf("assoc %d seed %d step %d: %s(tag %d) hit = %v, flat model %v",
						assoc, seed, step, op, tag, got, want)
				}
				where := fmt.Sprintf("assoc %d seed %d step %d after %s(tag %d)", assoc, seed, step, op, tag)
				if gl, wl := c.llcLines(), f.lines(); gl != wl {
					t.Fatalf("%s: lines = %d, flat model %d", where, gl, wl)
				}
				checkLineBitmaps(t, c, where)
				if got, want := c.lines.get(page)>>(tag&c.lppMask)&1 == 1, f.probeTag(tag, page); got != want {
					t.Fatalf("%s: line bitmap bit = %v, flat model probe %v", where, got, want)
				}
				switch step {
				case 1000: // the model's next two invalidations of page 0 wrap its epoch
					*f.epochs.slot(0) = epochMask - 2
					c.invalidatePage(0)
					f.invalidatePage(0)
					if c.llcLines() == 0 {
						t.Fatalf("assoc %d seed %d: no line resident before the purge", assoc, seed)
					}
					c.invalidatePage(0)
					f.invalidatePage(0)
					purged = f.pageEpoch(0) == 0
				case 2000: // the model's next few accesses renormalize every set's stamps
					f.tick = maxStamp - 4
				}
				if step > 2000 && f.tick < maxStamp/2 {
					renormalized = true
				}
			}
			if !purged || !renormalized {
				t.Fatalf("assoc %d seed %d: purged = %v, renormalized = %v; want both", assoc, seed, purged, renormalized)
			}
		}
	}
}
