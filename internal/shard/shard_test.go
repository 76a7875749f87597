package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// accounted builds an n-shard set whose values are the shards' own
// Accounting, so a test can charge each shard directly.
func accounted(t *testing.T, n int) *Set[enclave.Accounting] {
	t.Helper()
	s, err := New(n, 2, enclave.Config{}, 1<<20, "shard-test",
		func(_ int, acct enclave.Accounting) (enclave.Accounting, error) { return acct, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// charge touches (i+1) distinct KiB of shard i's heap, so every shard's
// ledger moves by a different amount.
func charge(s *Set[enclave.Accounting]) {
	for i := range s.Shards() {
		acct := s.At(i).V
		n := (i + 1) << 10
		acct.Mem.AccessRange(acct.Arena.Alloc(n), n, true)
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2, 8} {
			s, err := New(n, workers, enclave.Config{}, 0, "visit",
				func(i int, _ enclave.Accounting) (int, error) { return i, nil })
			if err != nil {
				t.Fatal(err)
			}
			visits := make([]atomic.Int32, n)
			s.ForEach(func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestCyclesSumShardCycles(t *testing.T) {
	s := accounted(t, 3)
	charge(s)
	var sum sim.Cycles
	for i, c := range s.ShardCycles() {
		if c == 0 {
			t.Fatalf("shard %d charged nothing", i)
		}
		if c != s.At(i).Cycles() {
			t.Fatalf("ShardCycles()[%d] = %d, shard reads %d", i, c, s.At(i).Cycles())
		}
		sum += c
	}
	if got := s.Cycles(); got != sum {
		t.Fatalf("Cycles = %d, sum of ShardCycles = %d", got, sum)
	}
	var faults uint64
	for i := range s.Shards() {
		faults += s.At(i).V.Mem.Faults()
	}
	if got := s.Faults(); got != faults {
		t.Fatalf("Faults = %d, sum over shards = %d", got, faults)
	}

	s.ResetAccounting()
	if c := s.ShardCycles(); slices.ContainsFunc(c, func(c sim.Cycles) bool { return c != 0 }) || s.Faults() != 0 {
		t.Fatalf("after ResetAccounting: ShardCycles %v, Faults %d", c, s.Faults())
	}
}

func TestUnaccountedReadsZero(t *testing.T) {
	s, err := New(3, 2, enclave.Config{}, 0, "plain",
		func(i int, acct enclave.Accounting) (int, error) {
			if acct != (enclave.Accounting{}) {
				return 0, fmt.Errorf("shard %d: unaccounted build got %+v", i, acct)
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ResetAccounting()
	if s.Cycles() != 0 || s.Faults() != 0 || !slices.Equal(s.ShardCycles(), make([]sim.Cycles, 3)) {
		t.Fatalf("unaccounted set reads Cycles %d, Faults %d, ShardCycles %v", s.Cycles(), s.Faults(), s.ShardCycles())
	}
	for i := range s.Shards() {
		if sh := s.At(i); sh.Enc != nil || sh.Cycles() != 0 || sh.V != i {
			t.Fatalf("shard %d: Enc %v, Cycles %d, V %d", i, sh.Enc, sh.Cycles(), sh.V)
		}
	}
	if got := Read(s, 0, func(n, v int) int { return n + v }); got != 0+1+2 {
		t.Fatalf("Read sum = %d, want 3", got)
	}
}

func TestNewDestroysBuiltEnclavesOnFailure(t *testing.T) {
	var built []*enclave.Enclave
	orig := newWorker
	newWorker = func(cfg enclave.Config, size uint64, name string) (*enclave.Enclave, *enclave.Arena, error) {
		enc, arena, err := orig(cfg, size, name)
		if err == nil {
			built = append(built, enc)
		}
		return enc, arena, err
	}
	defer func() { newWorker = orig }()

	const k = 2
	boom := errors.New("build failed")
	s, err := New(4, 2, enclave.Config{}, 1<<20, "fail",
		func(i int, _ enclave.Accounting) (int, error) {
			if i == k {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) || s != nil {
		t.Fatalf("New = %v, %v; want nil, %v", s, err, boom)
	}
	if len(built) != k+1 {
		t.Fatalf("built %d enclaves before failing at shard %d", len(built), k)
	}
	for i, enc := range built {
		if err := enc.EEnter(); err == nil {
			t.Errorf("enclave of shard %d still enterable after New failed", i)
		}
	}
}

func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		name             string
		before, after    []sim.Cycles
		deltas           []sim.Cycles
		serial, critical sim.Cycles
	}{
		{"empty", nil, nil, []sim.Cycles{}, 0, 0},
		{"idle", []sim.Cycles{5, 7}, []sim.Cycles{5, 7}, []sim.Cycles{0, 0}, 0, 0},
		{"one shard", []sim.Cycles{10}, []sim.Cycles{25}, []sim.Cycles{15}, 15, 15},
		{"even", []sim.Cycles{0, 100, 200}, []sim.Cycles{10, 110, 210}, []sim.Cycles{10, 10, 10}, 30, 10},
		{"skewed", []sim.Cycles{3, 0, 9, 1}, []sim.Cycles{4, 40, 9, 6}, []sim.Cycles{1, 40, 0, 5}, 46, 40},
	} {
		deltas, serial, critical := Spread(tc.before, tc.after)
		if !slices.Equal(deltas, tc.deltas) || serial != tc.serial || critical != tc.critical {
			t.Errorf("%s: Spread = %v, %d, %d; want %v, %d, %d",
				tc.name, deltas, serial, critical, tc.deltas, tc.serial, tc.critical)
		}
	}
}

func TestBytes(t *testing.T) {
	for _, tc := range []struct {
		accounted bool
		in, want  uint64
		err       bool
	}{
		{false, 0, 0, false},
		{false, 1 << 20, 0, false}, // a size alone does not account
		{true, 1 << 20, 1 << 20, false},
		{true, 0, 0, true},
	} {
		got, err := Bytes(tc.accounted, tc.in, "layer")
		if got != tc.want || (err != nil) != tc.err {
			t.Errorf("Bytes(%v, %d) = %d, %v; want %d, error %v", tc.accounted, tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestFirstErr(t *testing.T) {
	a, b := errors.New("a"), errors.New("b")
	if err := FirstErr([]error{nil, a, b}); err != a {
		t.Fatalf("FirstErr = %v, want the lowest-index error %v", err, a)
	}
	if err := FirstErr(make([]error, 3)); err != nil {
		t.Fatalf("FirstErr of no errors = %v", err)
	}
}
