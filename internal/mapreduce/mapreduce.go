// Package mapreduce implements SecureCloud's "map/reduce based
// computations" building block (paper §III-B(3)): a small map/reduce
// framework whose secure engine runs mapper and reducer tasks inside
// enclaves and seals all intermediate (shuffle) data, so the untrusted
// cloud sees neither records nor intermediate aggregates.
//
// The plain engine is the functional reference; the secure engine must
// produce identical results while keeping plaintext inside enclaves only —
// cross-checked by the test suite.
//
// Shuffle records. Each intermediate pair leaves its mapper as one record,
//
//	uvarint(len(key)) | key | value
//
// sealed (AES-GCM) under its partition's key, derived from the root key as
// "shuffle-partition-<p>", with AAD "shuffle|<job>|<p>". A record moved to
// another partition or job, or altered, fails to open (ErrShuffleTampered);
// one that opens but does not parse fails the run as malformed.
package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"securecloud/internal/shard"
)

// KV is one key/value record.
type KV struct {
	Key   string
	Value []byte
}

// MapFunc transforms one input record into intermediate records.
type MapFunc func(key string, value []byte, emit func(key string, value []byte))

// ReduceFunc folds all intermediate values of one key.
type ReduceFunc func(key string, values [][]byte) ([]byte, error)

// Job describes a map/reduce computation.
type Job struct {
	Name     string
	Input    []KV
	Map      MapFunc
	Reduce   ReduceFunc
	Reducers int // number of shuffle partitions (default 4)
	Workers  int // parallel mappers (default 4)
}

// Errors returned by the engines.
var (
	ErrNoJob = errors.New("mapreduce: job needs Map and Reduce functions")
)

func (j *Job) defaults() error {
	if j.Map == nil || j.Reduce == nil {
		return ErrNoJob
	}
	if j.Reducers <= 0 {
		j.Reducers = 4
	}
	if j.Workers <= 0 {
		j.Workers = 4
	}
	return nil
}

// Run executes the job in-process without enclaves — the functional
// reference implementation.
func Run(job Job) (map[string][]byte, error) {
	if err := job.defaults(); err != nil {
		return nil, err
	}
	// Map phase: parallel workers over input splits.
	parts := make([][]KV, job.Reducers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, split := range splitInput(job.Input, job.Workers) {
		wg.Add(1)
		go func(split []KV) {
			defer wg.Done()
			local := make([][]KV, job.Reducers)
			for _, rec := range split {
				job.Map(rec.Key, rec.Value, func(k string, v []byte) {
					p := shard.Of(k, job.Reducers)
					local[p] = append(local[p], KV{Key: k, Value: append([]byte(nil), v...)})
				})
			}
			mu.Lock()
			for p := range local {
				parts[p] = append(parts[p], local[p]...)
			}
			mu.Unlock()
		}(split)
	}
	wg.Wait()
	// Reduce phase.
	out := make(map[string][]byte)
	for p := 0; p < job.Reducers; p++ {
		grouped := groupByKey(parts[p])
		for _, key := range sortedKeys(grouped) {
			v, err := job.Reduce(key, grouped[key])
			if err != nil {
				return nil, fmt.Errorf("mapreduce %s: reduce %q: %w", job.Name, key, err)
			}
			mu.Lock()
			out[key] = v
			mu.Unlock()
		}
	}
	return out, nil
}

// splitInput partitions input into n contiguous splits.
func splitInput(input []KV, n int) [][]KV {
	if n > len(input) {
		n = len(input)
	}
	if n == 0 {
		return nil
	}
	var out [][]KV
	size := (len(input) + n - 1) / n
	for lo := 0; lo < len(input); lo += size {
		hi := lo + size
		if hi > len(input) {
			hi = len(input)
		}
		out = append(out, input[lo:hi])
	}
	return out
}

func groupByKey(recs []KV) map[string][][]byte {
	g := make(map[string][][]byte)
	for _, r := range recs {
		g[r.Key] = append(g[r.Key], r.Value)
	}
	return g
}

func sortedKeys(m map[string][][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
