package mapreduce

import (
	"encoding/json"
	"fmt"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/shard"
	"securecloud/internal/sim"
)

// ParallelConfig sizes a parallel secure engine.
type ParallelConfig struct {
	// Workers is the number of worker enclaves, each on its own simulated
	// platform (enclave-per-worker). It is a *topology* parameter: it
	// decides how the input splits and which worker owns each shuffle
	// partition, and therefore every simulated figure. Fix it when
	// comparing runs; vary MaxParallel freely instead. Defaults to 4.
	Workers int
	// MaxParallel bounds how many workers execute at once (0 = Workers).
	// Purely an execution parameter — outputs and simulated totals are
	// identical for any value, because workers share no simulated state.
	MaxParallel int
	// Platform configures each worker's simulated platform.
	Platform enclave.Config
	// WorkerBytes is each worker enclave's size (default 16 MiB). The
	// enclave heap doubles as the staging region input records and sealed
	// shuffle records stream through, wrapping when the working set
	// exceeds it — exactly how a fixed enclave heap behaves.
	WorkerBytes uint64
}

// mrWorker is one worker enclave's staging region, accounting for the
// records streamed through it.
type mrWorker struct {
	base uint64
	size uint64
	off  uint64
}

// stage returns the simulated address where the next n staged bytes land,
// bumping the staging cursor and wrapping at the region end (a fixed
// enclave heap reused across records). Deterministic: the address sequence
// is a pure function of the record sizes streamed through this worker.
func (w *mrWorker) stage(n int) uint64 {
	sz := uint64(n)
	if sz > w.size {
		sz = w.size // clamp pathological records to the region
	}
	if w.off+sz > w.size {
		w.off = 0
	}
	addr := w.base + w.off
	w.off += sz
	return addr
}

// PhaseStats is the per-phase cycle accounting of one parallel run: per
// worker totals plus the serial-sum and critical-path decomposition, the
// same scaling statement the sharded SCBR broker reports (summed shard
// cycles over the slowest shard = the speedup an ideal enclave-per-core
// machine realises).
type PhaseStats struct {
	WorkerMapCycles      []sim.Cycles
	WorkerReduceCycles   []sim.Cycles
	MapSerialCycles      sim.Cycles
	MapCriticalCycles    sim.Cycles
	ReduceSerialCycles   sim.Cycles
	ReduceCriticalCycles sim.Cycles
	MapFaults            uint64
	ReduceFaults         uint64
	Faults               uint64 // MapFaults + ReduceFaults
}

// MapSpeedup returns serial-over-critical-path for the map phase (1 when
// the phase charged nothing).
func (s PhaseStats) MapSpeedup() float64 { return speedup(s.MapSerialCycles, s.MapCriticalCycles) }

// ReduceSpeedup returns serial-over-critical-path for the reduce phase.
func (s PhaseStats) ReduceSpeedup() float64 {
	return speedup(s.ReduceSerialCycles, s.ReduceCriticalCycles)
}

func speedup(serial, critical sim.Cycles) float64 {
	if critical == 0 {
		return 1
	}
	return float64(serial) / float64(critical)
}

// ParallelSecureEngine runs jobs across worker enclaves that each own a
// whole simulated platform — the enclave-per-worker deployment, extending
// the shard-per-core pattern from routing and storage to compute. The map
// phase splits the input across workers; every intermediate record is
// sealed before it leaves its enclave; shuffle partitions are hashed to
// workers (partition mod Workers) for the reduce phase. Because workers
// share no simulated state and the task-to-worker assignment is fixed by
// topology, outputs and per-worker cycle totals are bit-identical for any
// MaxParallel and any goroutine interleaving; only Workers (the topology)
// changes the figures.
//
// An engine is not safe for concurrent Run calls; each call reuses the
// worker pool.
type ParallelSecureEngine struct {
	*shard.Set[mrWorker]
	rootKey cryptbox.Key
	hook    ShuffleHook
	stats   PhaseStats
}

// NewParallelSecureEngine builds the worker pool. The root key derives the
// per-partition shuffle keys, exactly as in the sequential SecureEngine —
// the two engines' sealed shuffles are interchangeable.
func NewParallelSecureEngine(rootKey cryptbox.Key, cfg ParallelConfig) (*ParallelSecureEngine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = cfg.Workers
	}
	if cfg.WorkerBytes == 0 {
		cfg.WorkerBytes = 16 << 20
	}
	set, err := shard.New(cfg.Workers, cfg.MaxParallel, cfg.Platform, cfg.WorkerBytes, "mr-parallel-worker",
		func(_ int, acct enclave.Accounting) (mrWorker, error) {
			size := acct.Arena.Capacity()
			return mrWorker{base: acct.Arena.Alloc(int(size)), size: size}, nil
		})
	if err != nil {
		return nil, err
	}
	return &ParallelSecureEngine{Set: set, rootKey: rootKey}, nil
}

// Stats returns the phase accounting of the most recent Run.
func (e *ParallelSecureEngine) Stats() PhaseStats { return e.stats }

// partitionBoxes derives one sealing box per shuffle partition, shared
// read-only by all workers (Box is safe for concurrent Seal/Open).
func (e *ParallelSecureEngine) partitionBoxes(reducers int) ([]*cryptbox.Box, error) {
	boxes := make([]*cryptbox.Box, reducers)
	for p := range boxes {
		key, err := cryptbox.DeriveKey(e.rootKey, fmt.Sprintf("shuffle-partition-%d", p))
		if err != nil {
			return nil, err
		}
		boxes[p], err = cryptbox.NewBox(key)
		if err != nil {
			return nil, err
		}
	}
	return boxes, nil
}

// Run executes the job across the worker pool with a sealed shuffle.
func (e *ParallelSecureEngine) Run(job Job) (map[string][]byte, error) {
	if err := job.defaults(); err != nil {
		return nil, err
	}
	boxes, err := e.partitionBoxes(job.Reducers)
	if err != nil {
		return nil, err
	}
	splits := splitInput(job.Input, e.Shards())
	faults0 := e.Faults()

	// Map phase: worker w maps split w inside its enclave, sealing every
	// intermediate record before it leaves. One accounting span covers the
	// whole split (the worker owns its platform exclusively).
	mapBefore := e.ShardCycles()
	perWorker := make([][][][]byte, e.Shards()) // worker -> partition -> sealed records
	mapErrs := make([]error, e.Shards())
	e.ForEach(func(w int) {
		if w < len(splits) {
			mapErrs[w] = e.runMapTask(job, boxes, splits[w], w, perWorker)
		}
	})
	if err := shard.FirstErr(mapErrs); err != nil {
		return nil, err
	}
	mapCycles, mapSerial, mapCritical := shard.Spread(mapBefore, e.ShardCycles())
	faultsAfterMap := e.Faults()

	// The shuffle concatenates worker outputs in ascending worker order —
	// deterministic however the map tasks interleaved.
	partitions := make([][][]byte, job.Reducers)
	for p := 0; p < job.Reducers; p++ {
		for w := range perWorker {
			if perWorker[w] != nil {
				partitions[p] = append(partitions[p], perWorker[w][p]...)
			}
		}
	}
	if e.hook != nil {
		e.hook(partitions)
	}

	// Reduce phase: partitions hash to workers (p mod Workers); each
	// worker unseals and reduces its partitions in ascending order.
	reduceBefore := e.ShardCycles()
	perWorkerOut := make([][]KV, e.Shards())
	reduceErrs := make([]error, e.Shards())
	e.ForEach(func(w int) {
		reduceErrs[w] = e.runReduceTask(job, boxes, partitions, w, perWorkerOut)
	})
	if err := shard.FirstErr(reduceErrs); err != nil {
		return nil, err
	}
	reduceCycles, reduceSerial, reduceCritical := shard.Spread(reduceBefore, e.ShardCycles())

	faultsEnd := e.Faults()
	e.stats = PhaseStats{
		WorkerMapCycles:      mapCycles,
		WorkerReduceCycles:   reduceCycles,
		MapSerialCycles:      mapSerial,
		MapCriticalCycles:    mapCritical,
		ReduceSerialCycles:   reduceSerial,
		ReduceCriticalCycles: reduceCritical,
		MapFaults:            faultsAfterMap - faults0,
		ReduceFaults:         faultsEnd - faultsAfterMap,
		Faults:               faultsEnd - faults0,
	}

	out := make(map[string][]byte)
	for _, kvs := range perWorkerOut {
		for _, kv := range kvs {
			out[kv.Key] = kv.Value
		}
	}
	return out, nil
}

// runMapTask maps one split inside worker w's enclave.
func (e *ParallelSecureEngine) runMapTask(job Job, boxes []*cryptbox.Box, split []KV, w int, perWorker [][][][]byte) error {
	sh := e.At(w)
	wk := &sh.V
	out := make([][][]byte, job.Reducers)
	if err := sh.Enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = sh.Enc.EExit() }()
	sp := sh.Enc.Memory().BeginSpan()
	var failed error
	for _, rec := range split {
		// Staging the record into the enclave reads it once.
		sp.Access(wk.stage(len(rec.Key)+len(rec.Value)), len(rec.Key)+len(rec.Value), false)
		job.Map(rec.Key, rec.Value, func(k string, v []byte) {
			if failed != nil {
				return
			}
			p := partition(k, job.Reducers)
			raw, err := json.Marshal(KV{Key: k, Value: v})
			if err != nil {
				failed = err
				return
			}
			sealed, err := boxes[p].Seal(raw, shuffleAAD(job.Name, p))
			if err != nil {
				failed = err
				return
			}
			// The sealed record is assembled in enclave memory before the
			// copy-out to untrusted shuffle storage.
			sp.Access(wk.stage(len(sealed)), len(sealed), true)
			out[p] = append(out[p], sealed)
		})
		if failed != nil {
			break
		}
	}
	sp.End()
	if failed != nil {
		return failed
	}
	perWorker[w] = out
	return nil
}

// runReduceTask unseals and reduces worker w's partitions (p ≡ w mod
// Workers, ascending) inside its enclave.
func (e *ParallelSecureEngine) runReduceTask(job Job, boxes []*cryptbox.Box, partitions [][][]byte, w int, perWorkerOut [][]KV) error {
	owned := 0
	for p := w; p < job.Reducers; p += e.Shards() {
		owned++
	}
	if owned == 0 {
		return nil
	}
	sh := e.At(w)
	wk := &sh.V
	if err := sh.Enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = sh.Enc.EExit() }()
	sp := sh.Enc.Memory().BeginSpan()
	var out []KV
	var failed error
	for p := w; p < job.Reducers && failed == nil; p += e.Shards() {
		var recs []KV
		for _, sealed := range partitions[p] {
			// Staging the sealed record into the enclave reads it once.
			sp.Access(wk.stage(len(sealed)), len(sealed), false)
			raw, err := boxes[p].Open(sealed, shuffleAAD(job.Name, p))
			if err != nil {
				failed = fmt.Errorf("%w: partition %d", ErrShuffleTampered, p)
				break
			}
			var kv KV
			if err := json.Unmarshal(raw, &kv); err != nil {
				failed = err
				break
			}
			recs = append(recs, kv)
		}
		if failed != nil {
			break
		}
		grouped := groupByKey(recs)
		for _, k := range sortedKeys(grouped) {
			v, err := job.Reduce(k, grouped[k])
			if err != nil {
				failed = fmt.Errorf("mapreduce %s: reduce %q: %w", job.Name, k, err)
				break
			}
			// The reduced record is written before leaving the enclave.
			sp.Access(wk.stage(len(k)+len(v)), len(k)+len(v), true)
			out = append(out, KV{Key: k, Value: v})
		}
	}
	sp.End()
	if failed != nil {
		return failed
	}
	perWorkerOut[w] = out
	return nil
}

// RunWithShuffleHook is Run with the hook installed for one execution.
func (e *ParallelSecureEngine) RunWithShuffleHook(job Job, hook ShuffleHook) (map[string][]byte, error) {
	old := e.hook
	e.hook = hook
	defer func() { e.hook = old }()
	return e.Run(job)
}
