package scbr

import (
	"slices"

	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// IndexConfig wires a containment index to the simulated memory hierarchy.
// With a nil Memory the index runs unaccounted (plain data structure).
type IndexConfig struct {
	// Mem is the accounting view the index's traversals are charged to:
	// an enclave view for the in-enclave broker, an untrusted view for the
	// baseline.
	Mem *enclave.Memory
	// Arena hands out the simulated addresses of index records (bumped
	// from its base) and of the locator's pages (carved from its tail).
	// Required when Mem is set.
	Arena *enclave.Arena
	// PayloadBytes is stored per subscription beyond the filter itself
	// (routing state, client handle, queue pointers). It controls how much
	// memory occupancy each registration adds, which is the x-axis of
	// Figure 3.
	PayloadBytes int
	// CheckCost is the pure-CPU cost of one covering/matching comparison,
	// charged symmetrically in and out of enclaves.
	CheckCost sim.Cycles
}

// node is one resident subscription in the containment forest. Parents
// cover their children: every event matching a child also matches the
// parent, so a failed parent check prunes the whole subtree. Filters
// equivalent to the node's (mutual covering) are stored in its bucket
// rather than as a degenerate chain — the classic pub/sub optimisation for
// popular identical filters.
type node struct {
	sub      Subscription
	parent   *node // the covering node; the sentinel for forest roots
	children []*node
	bucket   []dupEntry
	addr     uint64
	hdrBytes int
	payBytes int
}

// dupEntry is one equivalent filter sharing a node.
type dupEntry struct {
	id   uint64
	addr uint64
}

// The locator maps a subscription ID to the node that holds it, as owner
// or as bucket member, so Remove reaches its target without walking the
// forest. Broker IDs are dense and sequential, hence a direct-mapped paged
// table: one 8-byte slot per ID, locPageIDs slots to a page, a page
// allocated when its first ID registers and recycled when its last one
// leaves. Pages are carved from the tail of the arena, every slot read and
// write is charged through the index's memory view like a node access, and
// live pages count in MemoryBytes. The page directory (8 bytes per page,
// 0.2 % of the table) is not modelled. A shard of a P-way ShardedIndex
// sees every P-th ID and indexes by the ID as given, so its pages are 1/P
// full.
const (
	locSlotBytes = 8
	locPageIDs   = 512
	locPageBytes = locSlotBytes * locPageIDs
)

// locPage is one locator page: the slots of IDs [k*locPageIDs,
// (k+1)*locPageIDs).
type locPage struct {
	addr  uint64
	live  int // non-nil slots
	slots [locPageIDs]*node
}

// Index is SCBR's containment-forest subscription store. It is not safe
// for concurrent use; the broker serialises access the way the enclave's
// single matching thread does.
//
// Subscription IDs are the broker's sequential ids, so no two live
// subscriptions share one.
type Index struct {
	cfg   IndexConfig
	root  node // sentinel; its children are the forest roots
	count int
	bytes int64 // records plus live locator pages

	locator map[uint64]*locPage // by page number, id / locPageIDs

	// Storage Remove gave back, reused before the arena is asked for more:
	// records by exact size, locator pages on their own list. Both are
	// empty until the first Remove, so a pure-insert layout is the arena's
	// bump sequence.
	freeRecs  map[int][]uint64
	freePages []uint64

	// traversal statistics for the harness
	checks uint64

	// sp is the open accounting span of the operation in progress: every
	// node probe and record write of one Insert/Match/Remove accumulates
	// into it and commits once when the operation ends.
	sp *enclave.Span

	// lastMatchLen sizes the next Match's result slice: successive matches
	// deliver similar fan-outs, so a right-sized single allocation replaces
	// a doubling growth chain of garbage per call.
	lastMatchLen int
}

// NewIndex builds an index with the given accounting configuration.
func NewIndex(cfg IndexConfig) *Index {
	return &Index{cfg: cfg, locator: make(map[uint64]*locPage), freeRecs: make(map[int][]uint64)}
}

// Count returns the number of stored subscriptions.
func (ix *Index) Count() int { return ix.count }

// MemoryBytes returns the simulated occupancy of the subscription store,
// node and bucket records plus the locator's live pages — the x-axis of
// Figure 3.
func (ix *Index) MemoryBytes() int64 { return ix.bytes }

// Checks returns the cumulative number of cover/match comparisons.
func (ix *Index) Checks() uint64 { return ix.checks }

// begin opens the accounting span of one index operation; the returned
// func commits it. With no memory view attached both are no-ops.
func (ix *Index) begin() func() {
	if ix.cfg.Mem == nil {
		return func() {}
	}
	ix.sp = ix.cfg.Mem.BeginSpan()
	return func() {
		ix.sp.End()
		ix.sp = nil
	}
}

// touchFilter charges one comparison against a node: read its header and
// predicate records, pay the comparison CPU cost.
func (ix *Index) touchFilter(n *node) {
	ix.checks++
	if ix.sp != nil {
		ix.sp.AccessCPU(n.addr, n.hdrBytes, false, ix.cfg.CheckCost)
	}
}

// touchHeader charges a write of a node's fixed header: its ID, child
// vector or parent link changed.
func (ix *Index) touchHeader(n *node) {
	if ix.sp != nil {
		ix.sp.Access(n.addr, nodeHeaderBytes, true)
	}
}

// allocRecord adds a size-byte record to the store's occupancy and returns
// its address, reusing one that Remove released when there is one of
// exactly that size.
func (ix *Index) allocRecord(size int) uint64 {
	ix.bytes += int64(size)
	if ix.cfg.Arena == nil {
		return 0
	}
	if free := ix.freeRecs[size]; len(free) > 0 {
		addr := free[len(free)-1]
		ix.freeRecs[size] = free[:len(free)-1]
		return addr
	}
	return ix.cfg.Arena.Alloc(size)
}

// releaseRecord takes a record out of the store's occupancy and keeps its
// address for the next allocation of the same size.
func (ix *Index) releaseRecord(addr uint64, size int) {
	ix.bytes -= int64(size)
	if ix.cfg.Arena != nil {
		ix.freeRecs[size] = append(ix.freeRecs[size], addr)
	}
}

// dupBytes is the size of a bucket member's routing record.
func (ix *Index) dupBytes() int { return 16 + ix.cfg.PayloadBytes }

// locate reads id's locator slot: the node holding id, or nil.
func (ix *Index) locate(id uint64) *node {
	pg := ix.locator[id/locPageIDs]
	if pg == nil {
		return nil
	}
	slot := id % locPageIDs
	if ix.sp != nil {
		ix.sp.Access(pg.addr+slot*locSlotBytes, locSlotBytes, false)
	}
	return pg.slots[slot]
}

// setSlot points id's locator slot at n (nil clears it), allocating the
// page for the first ID in its range and recycling it after the last.
func (ix *Index) setSlot(id uint64, n *node) {
	k, slot := id/locPageIDs, id%locPageIDs
	pg := ix.locator[k]
	if pg == nil {
		if n == nil {
			return
		}
		pg = &locPage{}
		if last := len(ix.freePages) - 1; last >= 0 {
			pg.addr, ix.freePages = ix.freePages[last], ix.freePages[:last]
		} else if ix.cfg.Arena != nil {
			pg.addr = ix.cfg.Arena.AllocTail(locPageBytes)
		}
		ix.locator[k] = pg
		ix.bytes += locPageBytes
	}
	if ix.sp != nil {
		ix.sp.Access(pg.addr+slot*locSlotBytes, locSlotBytes, true)
	}
	switch was := pg.slots[slot]; {
	case was == nil && n != nil:
		pg.live++
	case was != nil && n == nil:
		pg.live--
	}
	pg.slots[slot] = n
	if pg.live == 0 {
		delete(ix.locator, k)
		ix.bytes -= locPageBytes
		if ix.cfg.Arena != nil {
			ix.freePages = append(ix.freePages, pg.addr)
		}
	}
}

// newNode allocates the storage of a subscription below parent.
func (ix *Index) newNode(s Subscription, parent *node) *node {
	n := &node{
		sub:      s,
		parent:   parent,
		hdrBytes: s.StorageBytes(),
		payBytes: ix.cfg.PayloadBytes,
	}
	n.addr = ix.allocRecord(n.hdrBytes + n.payBytes)
	return n
}

// Insert registers a subscription: descend the forest to the most specific
// covering filter, attach below it (or join its equivalence bucket),
// re-parent any of its siblings the new filter covers, and point the ID's
// locator slot at the node. This is the "registration" operation measured
// in Figure 3.
func (ix *Index) Insert(s Subscription) {
	defer ix.begin()()
	cur := &ix.root
	for {
		var next *node
		for _, ch := range cur.children {
			ix.touchFilter(ch)
			if ch.sub.Covers(s) {
				if s.Covers(ch.sub) {
					// Equivalent filter: join the bucket.
					ix.addDup(ch, s)
					return
				}
				next = ch
				break
			}
		}
		if next == nil {
			break
		}
		cur = next
	}
	n := ix.newNode(s, cur)

	// Re-parent children of cur that the new subscription covers.
	var keep, moved []*node
	for _, ch := range cur.children {
		ix.touchFilter(ch)
		if s.Covers(ch.sub) {
			ch.parent = n
			ix.touchHeader(ch)
			moved = append(moved, ch)
		} else {
			keep = append(keep, ch)
		}
	}
	n.children = moved
	cur.children = append(keep, n)

	// Write the node: header plus payload (routing state).
	if ix.sp != nil {
		ix.sp.Access(n.addr, n.hdrBytes+n.payBytes, true)
	}
	ix.count++
	ix.setSlot(s.ID, n)
}

// Match returns the IDs of all subscriptions matching e, pruning subtrees
// whose covering ancestors fail. The result order is deterministic
// (pre-order traversal).
func (ix *Index) Match(e Event) []uint64 {
	defer ix.begin()()
	out := make([]uint64, 0, ix.lastMatchLen+16)
	ix.matchFrom(&ix.root, viewOf(e), &out)
	ix.lastMatchLen = len(out)
	return out
}

func (ix *Index) matchFrom(cur *node, ev eventView, out *[]uint64) {
	for _, ch := range cur.children {
		ix.touchFilter(ch)
		if !ch.sub.matchesView(ev) {
			// Children are covered by ch: nothing below can match.
			continue
		}
		*out = append(*out, ch.sub.ID)
		ix.deliverBucket(ch, out)
		ix.matchFrom(ch, ev, out)
	}
}

// deliverBucket appends all equivalent filters of a matched node, touching
// every entry's routing record within the operation's span.
func (ix *Index) deliverBucket(n *node, out *[]uint64) {
	for _, d := range n.bucket {
		if ix.sp != nil {
			ix.sp.Access(d.addr, 16, false)
		}
		*out = append(*out, d.id)
	}
}

// addDup stores an equivalent filter in a node's bucket, allocating and
// writing its routing record.
func (ix *Index) addDup(n *node, s Subscription) {
	size := ix.dupBytes()
	d := dupEntry{id: s.ID, addr: ix.allocRecord(size)}
	if ix.sp != nil {
		ix.sp.Access(d.addr, size, true)
	}
	n.bucket = append(n.bucket, d)
	ix.count++
	ix.setSlot(s.ID, n)
}

// MatchSnapshot is the concurrent read path of Match: it matches e against
// the index, charging the traversal to a read-only snapshot accounting span
// that probes — but never mutates — the memory model's cache and residency
// state. It touches no Index fields other than the (frozen) forest, so any
// number of MatchSnapshot calls may run concurrently as long as mutators
// (Insert/Remove/Match) are excluded, e.g. by the read side of an RWMutex.
// Because nothing mutates, every interleaving charges identical totals —
// the determinism guarantee the sharded broker builds on.
//
// It returns the matched IDs (pre-order, as Match) and the number of
// cover/match comparisons performed, which the caller accumulates (the
// shared checks counter cannot be written lock-free).
func (ix *Index) MatchSnapshot(e Event) (ids []uint64, checks uint64) {
	var sp *enclave.Span
	if ix.cfg.Mem != nil {
		sp = ix.cfg.Mem.BeginSnapshotSpan()
		defer sp.End()
	}
	out := make([]uint64, 0, 16)
	ev := viewOf(e)
	var walk func(cur *node)
	walk = func(cur *node) {
		for _, ch := range cur.children {
			checks++
			if sp != nil {
				sp.AccessCPU(ch.addr, ch.hdrBytes, false, ix.cfg.CheckCost)
			}
			if !ch.sub.matchesView(ev) {
				continue
			}
			out = append(out, ch.sub.ID)
			for _, d := range ch.bucket {
				if sp != nil {
					sp.Access(d.addr, 16, false)
				}
				out = append(out, d.id)
			}
			walk(ch)
		}
	}
	walk(&ix.root)
	return out, checks
}

// MatchNaive checks every stored subscription without pruning — the
// reference matcher used by tests and the comparison baseline for the
// containment ablation.
func (ix *Index) MatchNaive(e Event) []uint64 {
	defer ix.begin()()
	ev := viewOf(e)
	var out []uint64
	var walk func(*node)
	walk = func(cur *node) {
		for _, ch := range cur.children {
			ix.touchFilter(ch)
			if ch.sub.matchesView(ev) {
				out = append(out, ch.sub.ID)
				ix.deliverBucket(ch, &out)
			}
			walk(ch)
		}
	}
	walk(&ix.root)
	return out
}

// Remove unregisters a subscription by ID and reports whether it was
// present. It does not search: one locator probe finds the node holding
// the ID and one header read confirms it, so the cost is independent of
// the store size. A bucket member just leaves its bucket; an owner with a
// non-empty bucket hands the node to the first member; otherwise the node
// is spliced out of its parent and its children are lifted to that parent,
// preserving the covering invariant (a parent covers everything below it,
// transitively) at the price of one parent-link write per child. The
// record that disappears is released for reuse.
func (ix *Index) Remove(id uint64) bool {
	defer ix.begin()()
	n := ix.locate(id)
	if n == nil {
		return false
	}
	ix.touchFilter(n)
	switch {
	case n.sub.ID != id:
		j := slices.IndexFunc(n.bucket, func(d dupEntry) bool { return d.id == id })
		if j < 0 {
			return false
		}
		ix.releaseRecord(n.bucket[j].addr, ix.dupBytes())
		n.bucket = slices.Delete(n.bucket, j, j+1)
	case len(n.bucket) > 0:
		// Equivalent filters share the node: the first bucket member takes
		// it over — its slot is re-pointed from its routing record to the
		// node — and gives that record up; the forest is unchanged.
		d := n.bucket[0]
		n.bucket = n.bucket[1:]
		n.sub.ID = d.id
		ix.touchHeader(n)
		ix.setSlot(d.id, n)
		ix.releaseRecord(d.addr, ix.dupBytes())
	default:
		// Splice the node out; its children keep a covering ancestor
		// (the parent covers n covers them).
		p := n.parent
		i := slices.Index(p.children, n)
		p.children = append(slices.Delete(p.children, i, i+1), n.children...)
		if p != &ix.root {
			ix.touchHeader(p)
		}
		for _, ch := range n.children {
			ch.parent = p
			ix.touchHeader(ch)
		}
		ix.releaseRecord(n.addr, n.hdrBytes+n.payBytes)
	}
	ix.setSlot(id, nil)
	ix.count--
	return true
}

// Depth returns the maximum depth of the forest (test/diagnostic hook).
func (ix *Index) Depth() int {
	var depth func(*node) int
	depth = func(cur *node) int {
		best := 0
		for _, ch := range cur.children {
			if d := depth(ch); d > best {
				best = d
			}
		}
		return best + 1
	}
	return depth(&ix.root) - 1
}

// RootFanout returns the number of forest roots (diagnostic hook).
func (ix *Index) RootFanout() int { return len(ix.root.children) }
