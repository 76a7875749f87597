package scbr

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"securecloud/internal/enclave"
)

func plainIndex() *Index { return NewIndex(IndexConfig{}) }

func TestInsertBuildsHierarchy(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	mid, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 50)})
	narrow, _ := NewSubscription(3, map[string]Interval{"a": iv(20, 30)})
	ix.Insert(wide)
	ix.Insert(mid)
	ix.Insert(narrow)
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 (everything under the widest filter)", ix.RootFanout())
	}
	if ix.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", ix.Depth())
	}
	if ix.Count() != 3 {
		t.Fatalf("Count = %d", ix.Count())
	}
}

func TestInsertReparentsOnGeneralArrival(t *testing.T) {
	// Insert specifics first, then a general filter that covers them: the
	// general one must adopt them.
	ix := plainIndex()
	n1, _ := NewSubscription(1, map[string]Interval{"a": iv(10, 20)})
	n2, _ := NewSubscription(2, map[string]Interval{"a": iv(30, 40)})
	ix.Insert(n1)
	ix.Insert(n2)
	if ix.RootFanout() != 2 {
		t.Fatalf("RootFanout = %d, want 2 before re-parenting", ix.RootFanout())
	}
	wide, _ := NewSubscription(3, map[string]Interval{"a": iv(0, 100)})
	ix.Insert(wide)
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 after the general filter adopts both", ix.RootFanout())
	}
	if ix.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", ix.Depth())
	}
}

func TestEquivalentFiltersBucket(t *testing.T) {
	ix := plainIndex()
	for i := uint64(1); i <= 10; i++ {
		s, _ := NewSubscription(i, map[string]Interval{"a": iv(0, 10)})
		ix.Insert(s)
	}
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 (equivalents bucketed)", ix.RootFanout())
	}
	if ix.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1 (no chains of equivalent filters)", ix.Depth())
	}
	if ix.Count() != 10 {
		t.Fatalf("Count = %d, want 10", ix.Count())
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 5}})
	if len(got) != 10 {
		t.Fatalf("matched %d of 10 equivalent filters", len(got))
	}
}

func TestMatchPrunesNonMatchingSubtrees(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	inner, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 20)})
	other, _ := NewSubscription(3, map[string]Interval{"a": iv(200, 300)})
	otherInner, _ := NewSubscription(4, map[string]Interval{"a": iv(210, 220)})
	for _, s := range []Subscription{wide, inner, other, otherInner} {
		ix.Insert(s)
	}
	checksBefore := ix.Checks()
	got := ix.Match(Event{Attrs: map[string]float64{"a": 15}})
	spent := ix.Checks() - checksBefore
	if len(got) != 2 {
		t.Fatalf("matched %v, want filters 1 and 2", got)
	}
	// Pruning: the failed root (200..300) is checked once, its child never.
	if spent != 3 {
		t.Fatalf("match used %d checks, want 3 (wide, inner, other-pruned)", spent)
	}
}

// TestMatchEquivalentToNaive cross-validates the pruning matcher against
// the exhaustive one over the synthetic workload.
func TestMatchEquivalentToNaive(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(7))
	for i := 0; i < 3000; i++ {
		ix.Insert(w.NextSubscription())
	}
	for i := 0; i < 200; i++ {
		e := w.NextEvent()
		a := append([]uint64(nil), ix.Match(e)...)
		b := append([]uint64(nil), ix.MatchNaive(e)...)
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
		if len(a) != len(b) {
			t.Fatalf("event %d: pruning matcher found %d, naive %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("event %d: result sets differ at %d", i, j)
			}
		}
	}
}

func TestContainmentIndexCheaperThanNaive(t *testing.T) {
	// The paper: "a reduced number of comparisons is required whenever a
	// message must be matched" — the containment ablation.
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(11))
	for i := 0; i < 5000; i++ {
		ix.Insert(w.NextSubscription())
	}
	e := w.NextEvent()
	base := ix.Checks()
	ix.Match(e)
	pruned := ix.Checks() - base
	base = ix.Checks()
	ix.MatchNaive(e)
	naive := ix.Checks() - base
	if pruned*2 >= naive {
		t.Fatalf("containment matcher used %d checks vs naive %d — expected >2x reduction", pruned, naive)
	}
}

func TestMemoryAccountingGrows(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	mem := p.UntrustedMemory()
	base := p.AllocUntrusted(32 << 20)
	arena := enclave.NewArena(mem, base, 32<<20)
	ix := NewIndex(IndexConfig{Mem: mem, Arena: arena, PayloadBytes: 512, CheckCost: 60})
	w := NewWorkload(DefaultWorkload(3))
	for i := 0; i < 500; i++ {
		ix.Insert(w.NextSubscription())
	}
	if ix.MemoryBytes() < 500*512 {
		t.Fatalf("MemoryBytes = %d, want at least payload volume", ix.MemoryBytes())
	}
	if mem.Cycles() == 0 {
		t.Fatal("no cycles charged for accounted index")
	}
	if mem.Breakdown()[enclave.CauseCPU] == 0 {
		t.Fatal("no CPU cost charged for comparisons")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(DefaultWorkload(5))
	b := NewWorkload(DefaultWorkload(5))
	for i := 0; i < 100; i++ {
		sa, sb := a.NextSubscription(), b.NextSubscription()
		if len(sa.Preds) != len(sb.Preds) {
			t.Fatal("same seed diverged")
		}
		for j := range sa.Preds {
			if sa.Preds[j] != sb.Preds[j] {
				t.Fatal("same seed diverged in predicates")
			}
		}
	}
}

func TestWorkloadProducesCoveringStructure(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(9))
	for i := 0; i < 2000; i++ {
		ix.Insert(w.NextSubscription())
	}
	if ix.Depth() < 2 {
		t.Fatalf("workload built a flat forest (depth %d); containment structure missing", ix.Depth())
	}
	if ix.RootFanout() > DefaultWorkload(9).Branches[0] {
		t.Fatalf("RootFanout %d exceeds hierarchy branch factor", ix.RootFanout())
	}
}

func TestWorkloadEventsMatchSomething(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(13))
	for i := 0; i < 2000; i++ {
		ix.Insert(w.NextSubscription())
	}
	matched := 0
	for i := 0; i < 300; i++ {
		if len(ix.Match(w.NextEvent())) > 0 {
			matched++
		}
	}
	// Deep, specific filters mean most events match nothing — as in real
	// CBR deployments — but popular (Zipf-head) paths must be covered.
	if matched < 15 {
		t.Fatalf("only %d/300 events matched anything; workload mismatch", matched)
	}
}

func TestRemoveLeaf(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	narrow, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 20)})
	ix.Insert(wide)
	ix.Insert(narrow)
	if !ix.Remove(2) {
		t.Fatal("Remove missed existing ID")
	}
	if ix.Count() != 1 {
		t.Fatalf("Count = %d", ix.Count())
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 15}})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after removal Match = %v", got)
	}
	if ix.Remove(2) {
		t.Fatal("double remove reported true")
	}
}

func TestRemoveInteriorLiftsChildren(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	mid, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 50)})
	narrow, _ := NewSubscription(3, map[string]Interval{"a": iv(20, 30)})
	ix.Insert(wide)
	ix.Insert(mid)
	ix.Insert(narrow)
	if !ix.Remove(2) {
		t.Fatal("Remove missed interior node")
	}
	// The narrow filter must still be reachable under the wide one.
	got := ix.Match(Event{Attrs: map[string]float64{"a": 25}})
	if len(got) != 2 {
		t.Fatalf("Match after interior removal = %v", got)
	}
	if ix.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2 (child lifted)", ix.Depth())
	}
}

func TestRemoveFromBucket(t *testing.T) {
	ix := plainIndex()
	for i := uint64(1); i <= 3; i++ {
		s, _ := NewSubscription(i, map[string]Interval{"a": iv(0, 10)})
		ix.Insert(s)
	}
	// Remove the node owner (ID 1): a bucket member takes over.
	if !ix.Remove(1) {
		t.Fatal("Remove missed node owner")
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 5}})
	if len(got) != 2 {
		t.Fatalf("Match = %v, want 2 survivors", got)
	}
	for _, id := range got {
		if id == 1 {
			t.Fatal("removed ID still delivered")
		}
	}
	// Remove a bucket member directly.
	if !ix.Remove(3) {
		t.Fatal("Remove missed bucket member")
	}
	if got := ix.Match(Event{Attrs: map[string]float64{"a": 5}}); len(got) != 1 {
		t.Fatalf("Match = %v, want 1 survivor", got)
	}
}

func TestRemoveMatchesNaiveAfterChurn(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(21))
	var ids []uint64
	for i := 0; i < 1500; i++ {
		s := w.NextSubscription()
		ids = append(ids, s.ID)
		ix.Insert(s)
	}
	// Remove every third subscription.
	for i := 0; i < len(ids); i += 3 {
		if !ix.Remove(ids[i]) {
			t.Fatalf("Remove(%d) missed", ids[i])
		}
	}
	for i := 0; i < 50; i++ {
		e := w.NextEvent()
		a := append([]uint64(nil), ix.Match(e)...)
		b := append([]uint64(nil), ix.MatchNaive(e)...)
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
		if len(a) != len(b) {
			t.Fatalf("event %d: pruned %d vs naive %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("result sets diverged after churn")
			}
		}
		for _, id := range a {
			if id%3 == 1 { // ids start at 1; removed ids are 1,4,7,...
				t.Fatalf("removed subscription %d still matched", id)
			}
		}
	}
}

// removeScan is the reference model of Remove: the depth-first scan of the
// whole forest that the locator replaced. It finds the ID by looking at
// every node and bucket in pre-order and never reads a parent link or a
// locator slot; it only clears the slot so that the model's MemoryBytes
// counts locator pages the way the index does.
func (ix *Index) removeScan(id uint64) bool {
	var from func(cur *node) bool
	from = func(cur *node) bool {
		for i, ch := range cur.children {
			if ch.id == id {
				if len(ch.bucket) > 0 {
					ch.id = ch.bucket[0].id
					ch.bucket = ch.bucket[1:]
					ix.bytes -= int64(ix.dupBytes())
				} else {
					cur.children = append(cur.children[:i], cur.children[i+1:]...)
					cur.children = append(cur.children, ch.children...)
					ix.bytes -= int64(ch.hdrBytes + ch.payBytes)
					ix.attrs.release(ch.f)
				}
				return true
			}
			for j, d := range ch.bucket {
				if d.id == id {
					ch.bucket = append(ch.bucket[:j], ch.bucket[j+1:]...)
					ix.bytes -= int64(ix.dupBytes())
					return true
				}
			}
			if from(ch) {
				return true
			}
		}
		return false
	}
	if !from(&ix.root) {
		return false
	}
	ix.count--
	ix.setSlot(nil, id, nil)
	return true
}

// preorder lists every stored ID in forest pre-order, a node's owner
// before its bucket before its children — the order Match delivers in.
func (ix *Index) preorder() []uint64 {
	var out []uint64
	var walk func(cur *node)
	walk = func(cur *node) {
		for _, ch := range cur.children {
			out = append(out, ch.id)
			for _, d := range ch.bucket {
				out = append(out, d.id)
			}
			walk(ch)
		}
	}
	walk(&ix.root)
	return out
}

// checkLocator asserts the index's redundant state against its forest:
// every live ID resolves through the locator to the node that holds it
// (owner or bucket), no slot survives its ID, page live counts are exact,
// every parent link agrees with the child lists, Count and MemoryBytes are
// the sums over what is stored, the attribute intern table holds exactly
// the attributes of stored filters, and no two live records or locator
// pages share simulated memory.
func checkLocator(t *testing.T, ix *Index) {
	t.Helper()
	type extent struct{ addr, size uint64 }
	var extents []extent
	holder := make(map[uint64]*node)
	var bytes int64
	var walk func(cur *node)
	walk = func(cur *node) {
		for _, ch := range cur.children {
			if ch.parent != cur {
				t.Fatalf("node %d: parent link does not point at the node listing it as child", ch.id)
			}
			holder[ch.id] = ch
			bytes += int64(ch.hdrBytes + ch.payBytes)
			extents = append(extents, extent{ch.addr, uint64(ch.hdrBytes + ch.payBytes)})
			for _, d := range ch.bucket {
				holder[d.id] = ch
				bytes += int64(ix.dupBytes())
				extents = append(extents, extent{d.addr, uint64(ix.dupBytes())})
			}
			walk(ch)
		}
	}
	walk(&ix.root)
	for id, n := range holder {
		pg := ix.locator[id/locPageIDs]
		if pg == nil || pg.slots[id%locPageIDs] != n {
			t.Fatalf("id %d does not resolve to the node holding it", id)
		}
	}
	for k, pg := range ix.locator {
		live := 0
		for slot, n := range pg.slots {
			if n == nil {
				continue
			}
			live++
			if id := k*locPageIDs + uint64(slot); holder[id] != n {
				t.Fatalf("slot of id %d survives its id", id)
			}
		}
		if live != pg.live || live == 0 {
			t.Fatalf("locator page %d: live = %d, counted %d", k, pg.live, live)
		}
		bytes += locPageBytes
		extents = append(extents, extent{pg.addr, locPageBytes})
	}
	checkAttrs(t, ix)
	if ix.Count() != len(holder) {
		t.Fatalf("Count = %d, forest holds %d", ix.Count(), len(holder))
	}
	if ix.MemoryBytes() != bytes {
		t.Fatalf("MemoryBytes = %d, records and locator pages sum to %d", ix.MemoryBytes(), bytes)
	}
	if ix.cfg.Arena == nil {
		return
	}
	slices.SortFunc(extents, func(a, b extent) int { return cmp.Compare(a.addr, b.addr) })
	for i := 1; i < len(extents); i++ {
		if prev := extents[i-1]; prev.addr+prev.size > extents[i].addr {
			t.Fatalf("live records overlap: [%#x,+%d) and [%#x,+%d)", prev.addr, prev.size, extents[i].addr, extents[i].size)
		}
	}
}

// checkAttrs asserts that ix's intern table holds exactly the attributes
// the forest's filters name (one filter per node; bucket members share
// their node's), each with one reference per predicate naming it.
func checkAttrs(t *testing.T, ix *Index) {
	t.Helper()
	refs := make(map[string]int)
	var walk func(cur *node)
	walk = func(cur *node) {
		for _, ch := range cur.children {
			for _, p := range ch.f {
				refs[ix.attrs.names[p.attr]]++
			}
			walk(ch)
		}
	}
	walk(&ix.root)
	if len(ix.attrs.ids) != len(refs) {
		t.Fatalf("intern table holds %d names, stored filters name %d", len(ix.attrs.ids), len(refs))
	}
	for name, n := range refs {
		id, ok := ix.attrs.ids[name]
		if !ok {
			t.Fatalf("attribute %q of a stored filter is not interned", name)
		}
		if ix.attrs.names[id] != name || ix.attrs.refs[id] != n {
			t.Fatalf("attribute %q: ID %d names %q with %d references, want %d", name, id, ix.attrs.names[id], ix.attrs.refs[id], n)
		}
	}
}

// modelOp is one step of a random interleaving: 'i' inserts sub, 'r'
// removes id (live, never registered, or already removed), 'm' matches
// event.
type modelOp struct {
	kind  byte
	sub   Subscription
	id    uint64
	event Event
}

// modelScript draws n ops from seed. Filters constrain one or two of two
// attributes to intervals on a coarse grid, so equivalent filters (bucket
// members), covered filters (interior nodes) and covering late-comers
// (re-parenting inserts) are all common. IDs are sequential, and every few
// hundred ops the sequence jumps so that locator pages come and go.
func modelScript(seed int64, n int) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	grid := func() Interval {
		lo := float64(rng.Intn(6))
		return iv(lo, lo+float64(rng.Intn(6)))
	}
	var live []uint64
	next := uint64(0)
	ops := make([]modelOp, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 40 || len(live) < 50:
			if next++; rng.Intn(300) == 0 {
				next += uint64(rng.Intn(3 * locPageIDs))
			}
			preds := map[string]Interval{"a": grid()}
			if rng.Intn(2) == 0 {
				preds = map[string]Interval{"b": grid()}
			}
			if rng.Intn(3) == 0 {
				preds = map[string]Interval{"a": grid(), "b": grid()}
			}
			s, err := NewSubscription(next, preds)
			if err != nil {
				panic(err)
			}
			live = append(live, next)
			ops[i] = modelOp{kind: 'i', sub: s}
		case r < 75:
			j := rng.Intn(len(live))
			ops[i] = modelOp{kind: 'r', id: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 80:
			// Absent: an ID that was removed (or skipped), or one not yet
			// handed out.
			ops[i] = modelOp{kind: 'r', id: uint64(rng.Int63n(int64(next) + 100))}
			if slices.Contains(live, ops[i].id) {
				ops[i].id = next + 1000
			}
		default:
			ops[i] = modelOp{kind: 'm', event: Event{Attrs: map[string]float64{
				"a": float64(rng.Intn(12)), "b": float64(rng.Intn(12)),
			}}}
		}
	}
	return ops
}

// TestRemoveAgainstScanModel drives random Insert/Remove/Match
// interleavings through the index and through the scanning model and
// requires them to stay indistinguishable: same Remove result, same
// pre-order ID sequence (so the forests have the same shape), same Count
// and MemoryBytes, Match equal to the model's MatchNaive — with the
// locator invariants holding throughout. The accounted run adds the
// record free list and locator page recycling.
func TestRemoveAgainstScanModel(t *testing.T) {
	for _, accounted := range []bool{false, true} {
		t.Run(fmt.Sprintf("accounted=%v", accounted), func(t *testing.T) {
			cfg := IndexConfig{PayloadBytes: 40}
			if accounted {
				p := enclave.NewPlatform(enclave.Config{})
				cfg.Mem = p.UntrustedMemory()
				cfg.Arena = enclave.NewArena(cfg.Mem, p.AllocUntrusted(4<<20), 4<<20)
				cfg.CheckCost = 60
			}
			ix := NewIndex(cfg)
			model := NewIndex(IndexConfig{PayloadBytes: cfg.PayloadBytes})
			removed, lifted := 0, 0
			for i, op := range modelScript(20, 12000) {
				switch op.kind {
				case 'i':
					ix.Insert(op.sub)
					model.Insert(op.sub)
				case 'r':
					if n := ix.locate(nil, op.id); n != nil && n.id == op.id && len(n.bucket) == 0 {
						lifted += len(n.children)
					}
					got, want := ix.Remove(op.id), model.removeScan(op.id)
					if got != want {
						t.Fatalf("op %d: Remove(%d) = %v, model %v", i, op.id, got, want)
					}
					if got {
						removed++
					}
				case 'm':
					want := sortedIDs(model.MatchNaive(op.event))
					if got := ix.Match(op.event); !idsEqual(sortedIDs(got), want) {
						t.Fatalf("op %d: Match = %v, model MatchNaive = %v", i, got, want)
					}
					continue
				}
				if got, want := ix.preorder(), model.preorder(); !idsEqual(got, want) {
					t.Fatalf("op %d (%c): pre-order diverged\n got %v\nwant %v", i, op.kind, got, want)
				}
				if ix.Count() != model.Count() || ix.MemoryBytes() != model.MemoryBytes() {
					t.Fatalf("op %d (%c): Count/MemoryBytes = %d/%d, model %d/%d", i, op.kind,
						ix.Count(), ix.MemoryBytes(), model.Count(), model.MemoryBytes())
				}
				if i%16 == 0 {
					checkLocator(t, ix)
				}
			}
			checkLocator(t, ix)
			if removed < 3000 || lifted < 300 {
				t.Fatalf("script too tame: %d removals, %d lifted children", removed, lifted)
			}
			if accounted && cfg.Arena.Used() > 1<<20 {
				t.Fatalf("arena used %d bytes for a store that never held more than a few hundred filters", cfg.Arena.Used())
			}
		})
	}
}

// TestRemoveReturnsMemoryBytes pins the occupancy accounting of each
// removal shape: whatever Insert added, Remove takes back exactly.
func TestRemoveReturnsMemoryBytes(t *testing.T) {
	wide := map[string]Interval{"a": iv(0, 100)}
	mid := map[string]Interval{"a": iv(10, 50), "b": iv(0, 9)}
	narrow := map[string]Interval{"a": iv(20, 30), "b": iv(1, 2), "c": iv(0, 1)}
	type reg struct {
		id    uint64
		preds map[string]Interval
	}
	for _, tc := range []struct {
		name   string
		base   []reg
		insert []reg
		remove []uint64
	}{
		{"leaf", []reg{{1, wide}}, []reg{{2, narrow}}, []uint64{2}},
		{"interior", []reg{{1, wide}, {2, narrow}}, []reg{{3, mid}}, []uint64{3}},
		{"bucket member", []reg{{1, wide}, {2, mid}}, []reg{{3, mid}}, []uint64{3}},
		{"owner with bucket", []reg{{1, wide}}, []reg{{2, mid}, {3, mid}, {4, narrow}}, []uint64{2, 4, 3}},
		{"last id of a locator page", []reg{{1, wide}}, []reg{{5000, narrow}}, []uint64{5000}},
		{"whole store", nil, []reg{{1, wide}, {2, mid}, {3, mid}, {4, narrow}}, []uint64{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewIndex(IndexConfig{PayloadBytes: 100})
			for _, r := range tc.base {
				ix.Insert(sub(t, r.id, r.preds))
			}
			before := ix.MemoryBytes()
			for _, r := range tc.insert {
				ix.Insert(sub(t, r.id, r.preds))
			}
			if ix.MemoryBytes() <= before {
				t.Fatalf("MemoryBytes did not grow: %d -> %d", before, ix.MemoryBytes())
			}
			for _, id := range tc.remove {
				if !ix.Remove(id) {
					t.Fatalf("Remove(%d) missed", id)
				}
				checkLocator(t, ix)
			}
			if ix.MemoryBytes() != before {
				t.Fatalf("MemoryBytes = %d after insert+remove, was %d before", ix.MemoryBytes(), before)
			}
		})
	}
}

// TestChurnReusesArena is the bounded-arena test: FIFO churn on an
// accounted index whose arena has little slack beyond the pre-fill. Once
// the FIFO has turned over twice — the first turn replaces pre-fill
// records by the pool's sizes, the second finds the one spare record per
// size that registering before unregistering needs — every pair must be
// served from what Remove released, records and locator pages alike.
func TestChurnReusesArena(t *testing.T) {
	const (
		prefill = 3000
		fifo    = 600 // spans more than one locator page
		slack   = 512 << 10
	)
	w := NewWorkload(DefaultWorkload(5))
	p := enclave.NewPlatform(enclave.Config{})
	mem := p.UntrustedMemory()
	probe := NewIndex(IndexConfig{PayloadBytes: 600})
	pre := make([]Subscription, prefill)
	for i := range pre {
		pre[i] = w.NextSubscription()
		probe.Insert(pre[i])
	}
	size := uint64(probe.MemoryBytes()) + slack
	arena := enclave.NewArena(mem, p.AllocUntrusted(size), size)
	ix := NewIndex(IndexConfig{Mem: mem, Arena: arena, PayloadBytes: 600, CheckCost: 60})
	for _, s := range pre {
		ix.Insert(s)
	}
	filled := arena.Used()
	pool := make([]Subscription, fifo)
	for i := range pool {
		pool[i] = w.NextSubscription()
	}
	next, oldest := uint64(prefill), uint64(prefill-fifo+1)
	pair := func(i int) {
		next++
		s := pool[i%fifo]
		s.ID = next
		ix.Insert(s)
		if !ix.Remove(oldest) {
			t.Fatalf("pair %d: Remove(%d) missed", i, oldest)
		}
		oldest++
	}
	pairs := 0
	for ; pairs < 2*fifo; pairs++ {
		pair(pairs)
	}
	settled := arena.Used()
	var churned uint64
	for ; churned < 20*slack; pairs++ {
		churned += uint64(pool[pairs%fifo].StorageBytes() + 600)
		pair(pairs)
	}
	if arena.Used() != settled {
		t.Fatalf("arena still growing: %d bytes after %d pairs, %d after %d", settled, 2*fifo, arena.Used(), pairs)
	}
	if settled-filled >= slack {
		t.Fatalf("churn took %d bytes of arena beyond the pre-fill, slack is %d", settled-filled, slack)
	}
	if ix.Count() != prefill {
		t.Fatalf("Count = %d, want %d", ix.Count(), prefill)
	}
	checkLocator(t, ix)
}

func TestFigure3SmokeTest(t *testing.T) {
	// A miniature sweep on a shrunken platform: verifies the ratio rises
	// once the database exceeds the EPC.
	cfg := Figure3Config{
		OccupanciesMB: []float64{1, 8},
		MeasureOps:    300,
		PayloadBytes:  1024,
		CheckCost:     60,
		Seed:          42,
		Platform: enclave.Config{
			EPCBytes:         4 << 20,
			EPCReservedBytes: 1 << 20,
			LLCBytes:         256 << 10,
		},
	}
	points, err := RunFigure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	small, big := points[0], points[1]
	if big.TimeRatio <= small.TimeRatio {
		t.Fatalf("time ratio did not rise past EPC: %.2f -> %.2f", small.TimeRatio, big.TimeRatio)
	}
	if big.TimeRatio < 2 {
		t.Fatalf("beyond-EPC ratio %.2f implausibly low", big.TimeRatio)
	}
	if big.InsideFaults <= small.InsideFaults {
		t.Fatalf("inside faults did not rise: %d -> %d", small.InsideFaults, big.InsideFaults)
	}
}
