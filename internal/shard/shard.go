// Package shard is the shard-per-core substrate the concurrent layers are
// built on: scbr.ShardedIndex (routing), kvstore.ShardedStore (storage)
// and mapreduce.ParallelSecureEngine (compute). A Set partitions one data
// structure into shards, gives each shard its own simulated platform and
// enclave (enclave.NewWorker), fans work out through a bounded worker set
// (sim.ParallelFor) and keeps one cycle ledger per shard.
//
// Because every accounted shard owns a whole platform, shards share no
// simulated state, so a fan-out charges the same totals in any order and at
// any worker count: the shard count is topology, the worker count is
// execution only. Spread turns two ShardCycles readings into the
// serial-sum versus critical-path decomposition every layer reports.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// Of maps key onto one of n slots: 32-bit FNV-1a of the key mod n,
// computed inline over the string so it allocates nothing. It is the one
// key hash of the concurrent layers — kvstore's home shard, microsvc's
// replica route and mapreduce's reducer partition — so it decides every
// simulated figure they report and must stay equal to hash/fnv's New32a
// (TestOfMatchesFNV pins it).
func Of(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// newWorker builds an accounted shard's enclave; tests swap it to observe
// the enclaves New builds.
var newWorker = enclave.NewWorker

// Shard is one partition: its value, the reader/writer lock that guards it
// (writers take the write side, snapshot readers the read side) and, when
// accounted, the enclave it lives in.
type Shard[T any] struct {
	sync.RWMutex
	V   T
	Enc *enclave.Enclave // nil when unaccounted
}

// Cycles returns the simulated cycles charged to the shard's enclave
// memory (0 when unaccounted).
func (sh *Shard[T]) Cycles() sim.Cycles {
	if sh.Enc == nil {
		return 0
	}
	return sh.Enc.Memory().Cycles()
}

// Set is a fixed set of shards plus the worker bound of its fan-out.
type Set[T any] struct {
	shards  []*Shard[T]
	workers int
}

// New builds n shards (0 = GOMAXPROCS) fanned out across at most workers
// goroutines (0 = GOMAXPROCS). With bytes > 0 shard i lives in an enclave
// of that size on a fresh platform configured by platform, measured over
// the name "<name>-<i>", and build receives its heap arena; with
// bytes == 0 the shards are unaccounted and build receives a nil arena.
// If any step fails, the enclaves already built are destroyed.
func New[T any](n, workers int, platform enclave.Config, bytes uint64, name string, build func(i int, arena *enclave.Arena) (T, error)) (*Set[T], error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Set[T]{shards: make([]*Shard[T], 0, n), workers: workers}
	for i := 0; i < n; i++ {
		sh := &Shard[T]{}
		var arena *enclave.Arena
		if bytes > 0 {
			enc, a, err := newWorker(platform, bytes, fmt.Sprintf("%s-%d", name, i))
			if err != nil {
				s.Close()
				return nil, err
			}
			sh.Enc, arena = enc, a
		}
		s.shards = append(s.shards, sh)
		v, err := build(i, arena)
		if err != nil {
			s.Close()
			return nil, err
		}
		sh.V = v
	}
	return s, nil
}

// Bytes turns a layer's Accounted/ShardBytes options into New's bytes
// argument, where 0 means unaccounted; an accounted set needs a size.
func Bytes(accounted bool, shardBytes uint64, what string) (uint64, error) {
	if !accounted {
		return 0, nil
	}
	if shardBytes == 0 {
		return 0, fmt.Errorf("%s needs ShardBytes", what)
	}
	return shardBytes, nil
}

// Shards returns the shard count.
func (s *Set[T]) Shards() int { return len(s.shards) }

// At returns shard i.
func (s *Set[T]) At(i int) *Shard[T] { return s.shards[i] }

// ForEach runs fn(i) for every shard index across at most the set's worker
// bound; each index is visited exactly once, by one goroutine. fn must lock
// shard i only if other goroutines can reach it concurrently.
func (s *Set[T]) ForEach(fn func(i int)) {
	sim.ParallelFor(len(s.shards), s.workers, fn)
}

// Cycles returns the simulated cycles charged across all shard memories
// (0 when unaccounted). Snapshot reads never perturb one another, so equal
// workloads report equal totals at any parallelism.
func (s *Set[T]) Cycles() sim.Cycles {
	var n sim.Cycles
	for _, sh := range s.shards {
		n += sh.Cycles()
	}
	return n
}

// Faults returns the page faults across all shard memories.
func (s *Set[T]) Faults() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh.Enc != nil {
			n += sh.Enc.Memory().Faults()
		}
	}
	return n
}

// ShardCycles returns each shard's simulated cycle total; Spread over two
// readings gives the serial/critical-path decomposition of what ran
// between them.
func (s *Set[T]) ShardCycles() []sim.Cycles {
	out := make([]sim.Cycles, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Cycles()
	}
	return out
}

// ResetAccounting zeroes every shard memory's ledger and fault counter.
func (s *Set[T]) ResetAccounting() {
	for _, sh := range s.shards {
		if sh.Enc != nil {
			sh.Enc.Memory().ResetAccounting()
		}
	}
}

// Close destroys the shard enclaves.
func (s *Set[T]) Close() {
	for _, sh := range s.shards {
		if sh.Enc != nil {
			sh.Enc.Destroy()
		}
	}
}

// Read folds f over every shard value in shard order, each under its
// shard's read lock.
func Read[T, A any](s *Set[T], acc A, f func(acc A, v T) A) A {
	for _, sh := range s.shards {
		sh.RLock()
		acc = f(acc, sh.V)
		sh.RUnlock()
	}
	return acc
}

// Spread subtracts two ShardCycles readings, returning the per-shard
// deltas, their sum (the cost on one core: serial) and their maximum (the
// slowest shard: the critical path on a shard-per-core machine).
func Spread(before, after []sim.Cycles) (deltas []sim.Cycles, serial, critical sim.Cycles) {
	deltas = make([]sim.Cycles, len(after))
	for i := range after {
		d := after[i] - before[i]
		deltas[i] = d
		serial += d
		critical = max(critical, d)
	}
	return deltas, serial, critical
}

// FirstErr returns the lowest-index non-nil error, so a fan-out reports
// the same failure whatever order its shards ran in.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
