package mapreduce

import (
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

// stager charges each record a task moves to the next staging address,
// within the task's accounting span.
func (w *mrWorker) stager(sp *enclave.Span) stageFunc {
	return func(n int) { sp.Access(w.stage(n), n) }
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

// NewParallelSecureEngine builds the worker pool. The root key
// (provisioned via the CAS in a full deployment) derives the per-partition
// shuffle keys.
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
		func(_ int, arena *enclave.Arena) (mrWorker, error) {
			size := arena.Capacity()
			return mrWorker{base: arena.Alloc(int(size)), size: size}, nil
		})
	if err != nil {
		return nil, err
	}
	return &ParallelSecureEngine{Set: set, rootKey: rootKey}, nil
}

// Stats returns the phase accounting of the most recent Run.
func (e *ParallelSecureEngine) Stats() PhaseStats { return e.stats }

// Run executes the job across the worker pool with a sealed shuffle.
func (e *ParallelSecureEngine) Run(job Job) (map[string][]byte, error) {
	if err := job.defaults(); err != nil {
		return nil, err
	}
	boxes, err := partitionBoxes(e.rootKey, job.Reducers)
	if err != nil {
		return nil, err
	}
	aads := shuffleAADs(job.Name, job.Reducers)
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
			mapErrs[w] = e.runMapTask(&job, boxes, aads, splits[w], w, perWorker)
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
		reduceErrs[w] = e.runReduceTask(&job, boxes, aads, partitions, w, perWorkerOut)
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

// runMapTask maps one split inside worker w's enclave. Staging a record
// into the enclave reads it once; each sealed record is assembled in
// enclave memory before the copy-out to untrusted shuffle storage.
func (e *ParallelSecureEngine) runMapTask(job *Job, boxes []*cryptbox.Box, aads [][]byte, split []KV, w int, perWorker [][][][]byte) error {
	sh := e.At(w)
	if err := sh.Enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = sh.Enc.EExit() }()
	sp := sh.Enc.Memory().BeginSpan()
	out, err := mapSplit(job, boxes, aads, split, sh.V.stager(sp))
	sp.End()
	if err != nil {
		return err
	}
	perWorker[w] = out
	return nil
}

// runReduceTask unseals and reduces worker w's partitions (p ≡ w mod
// Workers, ascending) inside its enclave. Staging a sealed record reads it
// once; each reduced record is written before leaving the enclave.
func (e *ParallelSecureEngine) runReduceTask(job *Job, boxes []*cryptbox.Box, aads [][]byte, partitions [][][]byte, w int, perWorkerOut [][]KV) error {
	if w >= job.Reducers {
		return nil // owns no partition
	}
	sh := e.At(w)
	if err := sh.Enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = sh.Enc.EExit() }()
	sp := sh.Enc.Memory().BeginSpan()
	stage := sh.V.stager(sp)
	var out []KV
	var err error
	for p := w; p < job.Reducers && err == nil; p += e.Shards() {
		err = reducePartition(job, boxes[p], aads[p], p, partitions[p], stage, func(k string, v []byte) {
			out = append(out, KV{Key: k, Value: v})
		})
	}
	sp.End()
	if err != nil {
		return err
	}
	perWorkerOut[w] = out
	return nil
}

// ShuffleHook receives the sealed shuffle partitions between the map and
// reduce phases — modelling an attacker with access to the intermediate
// storage. Fault-injection tests mutate records here.
type ShuffleHook func(partitions [][][]byte)

// RunWithShuffleHook is Run with the hook installed for one execution.
func (e *ParallelSecureEngine) RunWithShuffleHook(job Job, hook ShuffleHook) (map[string][]byte, error) {
	old := e.hook
	e.hook = hook
	defer func() { e.hook = old }()
	return e.Run(job)
}
