package scbr

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"securecloud/internal/enclave"
)

func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchEquivalence is the property test of the matcher family:
// on random workloads, for every shard count, the sharded parallel matcher,
// the pruning matcher, the snapshot matcher and the naive reference all
// return the same ID set. Subscriptions are also randomly removed to
// exercise re-parenting in every shard.
func TestShardedMatchEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed * 977))
			w := NewWorkload(DefaultWorkload(seed + 100))
			ref := NewIndex(IndexConfig{})
			sx, err := NewShardedIndex(ShardedIndexConfig{Shards: shards, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			var live []uint64
			nsubs := 200 + rng.Intn(400)
			for i := 0; i < nsubs; i++ {
				s := w.NextSubscription()
				ref.Insert(s)
				sx.Insert(s)
				live = append(live, s.ID)
			}
			// Remove a random quarter from both stores.
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for _, id := range live[:len(live)/4] {
				if ref.Remove(id) != sx.Remove(id) {
					t.Fatalf("shards=%d seed=%d: removal disagreement on id %d", shards, seed, id)
				}
			}
			for j := 0; j < 40; j++ {
				e := w.NextEvent()
				naive := sortedIDs(ref.MatchNaive(e))
				pruned := sortedIDs(ref.Match(e))
				snap, _ := ref.MatchSnapshot(e)
				snap = sortedIDs(snap)
				got := sx.Match(e)
				if !idsEqual(naive, pruned) {
					t.Fatalf("shards=%d seed=%d: Match != MatchNaive\n got %v\nwant %v", shards, seed, pruned, naive)
				}
				if !idsEqual(naive, snap) {
					t.Fatalf("shards=%d seed=%d: MatchSnapshot != MatchNaive\n got %v\nwant %v", shards, seed, snap, naive)
				}
				if !idsEqual(naive, got) {
					t.Fatalf("shards=%d seed=%d: ShardedIndex.Match != MatchNaive\n got %v\nwant %v", shards, seed, got, naive)
				}
				if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
					t.Fatalf("shards=%d: sharded match result not sorted: %v", shards, got)
				}
			}
		}
	}
}

// TestShardedAgainstScanModel runs the interleavings of
// TestRemoveAgainstScanModel through the sharded store: whatever the shard
// count, Remove reports what the scanning model reports, Count agrees and
// Match returns the model's MatchNaive set.
func TestShardedAgainstScanModel(t *testing.T) {
	for _, shards := range []int{1, 3} {
		sx, err := NewShardedIndex(ShardedIndexConfig{Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		model := NewIndex(IndexConfig{})
		for i, op := range modelScript(21, 10000) {
			switch op.kind {
			case 'i':
				sx.Insert(op.sub)
				model.Insert(op.sub)
			case 'r':
				if got, want := sx.Remove(op.id), model.removeScan(op.id); got != want {
					t.Fatalf("shards=%d op %d: Remove(%d) = %v, model %v", shards, i, op.id, got, want)
				}
			case 'm':
				want := sortedIDs(model.MatchNaive(op.event))
				if got := sx.Match(op.event); !idsEqual(got, want) {
					t.Fatalf("shards=%d op %d: Match = %v, model MatchNaive = %v", shards, i, got, want)
				}
			}
			if sx.Count() != model.Count() {
				t.Fatalf("shards=%d op %d: Count = %d, model %d", shards, i, sx.Count(), model.Count())
			}
		}
		for i := range sx.Shards() {
			checkLocator(t, sx.At(i).V)
		}
	}
}

// accountedShardedIndex builds a small accounted sharded index on shrunken
// platforms (4 MiB EPC) so both the resident and the swapping regime are
// cheap to reach.
func accountedShardedIndex(t testing.TB, shards int, subs int) (*ShardedIndex, *Workload) {
	t.Helper()
	sx, err := NewShardedIndex(ShardedIndexConfig{
		Shards:       shards,
		Workers:      4,
		PayloadBytes: 600,
		CheckCost:    450,
		Accounted:    true,
		Platform: enclave.Config{
			EPCBytes:         4 << 20,
			EPCReservedBytes: 1 << 20,
			LLCBytes:         256 << 10,
			LLCWays:          8,
			LineSize:         64,
			PageSize:         4096,
		},
		ShardBytes: 24 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(DefaultWorkload(42))
	for i := 0; i < subs; i++ {
		sx.Insert(w.NextSubscription())
	}
	return sx, w
}

// TestShardedMatchDeterministicUnderConcurrency pins the tentpole
// guarantee: publishing the same multiset of events sequentially or from
// many goroutines charges bit-identical aggregate sim-cycles and faults,
// because concurrent matches read a frozen snapshot of each shard.
func TestShardedMatchDeterministicUnderConcurrency(t *testing.T) {
	const shards, subs, nevents = 3, 14000, 96
	run := func(parallel int) (cycles uint64, faults uint64, matched uint64) {
		sx, w := accountedShardedIndex(t, shards, subs)
		events := make([]Event, nevents)
		for i := range events {
			events[i] = w.NextEvent()
		}
		sx.ResetAccounting()
		var total struct {
			sync.Mutex
			n uint64
		}
		var wg sync.WaitGroup
		wg.Add(parallel)
		for g := 0; g < parallel; g++ {
			go func(g int) {
				defer wg.Done()
				n := uint64(0)
				for i := g; i < nevents; i += parallel {
					n += uint64(len(sx.Match(events[i])))
				}
				total.Lock()
				total.n += n
				total.Unlock()
			}(g)
		}
		wg.Wait()
		return uint64(sx.Cycles()), sx.Faults(), total.n
	}
	c1, f1, m1 := run(1)
	c4, f4, m4 := run(4)
	if m1 == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	if c1 != c4 || f1 != f4 || m1 != m4 {
		t.Fatalf("parallel run diverged from sequential:\n seq cycles=%d faults=%d matched=%d\n par cycles=%d faults=%d matched=%d",
			c1, f1, m1, c4, f4, m4)
	}
	if f1 == 0 {
		t.Fatal("expected the swapping regime (nonzero faults); shrink EPC or grow subs")
	}
}

// TestSnapshotMatchLeavesStateFrozen verifies the read-only discipline
// end to end: any number of snapshot matches between two mutating matches
// must not change what the second mutating match is charged.
func TestSnapshotMatchLeavesStateFrozen(t *testing.T) {
	build := func() (*ShardedIndex, []Event) {
		sx, w := accountedShardedIndex(t, 2, 3000)
		events := make([]Event, 8)
		for i := range events {
			events[i] = w.NextEvent()
		}
		return sx, events
	}
	costOf := func(sx *ShardedIndex, e Event) uint64 {
		before := uint64(sx.Cycles())
		sx.MatchNaive(e) // mutating path
		return uint64(sx.Cycles()) - before
	}
	sxA, events := build()
	sxB, _ := build()
	// A: mutate, snapshot-match a lot, mutate. B: mutate, mutate.
	a1 := costOf(sxA, events[0])
	for i := 0; i < 50; i++ {
		sxA.Match(events[i%len(events)])
	}
	b1 := costOf(sxB, events[0])
	aProbe := uint64(sxA.Cycles())
	bProbe := uint64(sxB.Cycles())
	a2 := costOf(sxA, events[1])
	b2 := costOf(sxB, events[1])
	_ = aProbe
	_ = bProbe
	if a1 != b1 {
		t.Fatalf("twin builds diverged before snapshots: %d vs %d", a1, b1)
	}
	if a2 != b2 {
		t.Fatalf("snapshot matches perturbed platform state: follow-up mutating match cost %d, want %d", a2, b2)
	}
}
