package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/mapreduce"
	"securecloud/internal/shard"
	"securecloud/internal/sim"
	"securecloud/internal/smartgrid"
)

// Workload shape of the kv suite. Shard and map/reduce worker-enclave
// counts are topology (they shape the figures); execution fan-out follows
// GOMAXPROCS and never changes a total.
const (
	kvSeed      = 42
	kvRecords   = 16000
	kvShards    = 4
	kvMRWorkers = 4
	kvReducers  = 8
	kvTicks     = 96
	kvMeters    = 200
)

// kvShardPlatform is the shrunken per-shard platform: a 2 MiB EPC so the
// workload is swap-bound — the regime where sharding matters.
var kvShardPlatform = enclave.Config{
	EPCBytes:         2 << 20,
	EPCReservedBytes: 512 << 10,
	LLCBytes:         256 << 10,
	LLCWays:          8,
	LineSize:         64,
	PageSize:         4096,
}

// kvPhase measures one batch phase on a sharded store: the per-shard
// cycle deltas summed (serial execution) and their maximum (the critical
// path on a shard-per-core machine), and the faults.
type kvPhase struct {
	ss      *kvstore.ShardedStore
	before  []sim.Cycles
	faults0 uint64
}

func beginPhase(ss *kvstore.ShardedStore) kvPhase {
	return kvPhase{ss: ss, before: ss.ShardCycles(), faults0: ss.Faults()}
}

// end closes the phase and returns its simulated figures.
func (p kvPhase) end() (serial, critical, faults float64) {
	_, sum, max := shard.Spread(p.before, p.ss.ShardCycles())
	return float64(sum), float64(max), float64(p.ss.Faults() - p.faults0)
}

// kvSuite drives the sharded secure key/value store and the parallel
// secure map/reduce engine — the storage and compute analogues of the
// sharded SCBR broker — through two workloads:
//
//  1. batch key/value: PutBatch then GetBatch over a store that exceeds
//     each shard's EPC, cross-checked against the sequential store;
//  2. smartgrid billing end to end: a metering fleet streams readings
//     into the sharded store in per-tick batches, the day is scanned back
//     out, and per-feeder consumption is aggregated by the parallel
//     secure map/reduce engine with a sealed shuffle.
func kvSuite() (result, error) {
	r := result{Deterministic: make(map[string]float64)}
	det := r.Deterministic
	var key cryptbox.Key
	key[0] = 0x5C
	newStore := func(seed int64) (*kvstore.ShardedStore, error) {
		return kvstore.NewShardedStore(key, kvstore.ShardedStoreConfig{
			Shards:     kvShards,
			Seed:       seed,
			Accounted:  true,
			Platform:   kvShardPlatform,
			ShardBytes: 32 << 20,
		})
	}

	// ---- Workload 1: batch key/value over the sharded store ----
	ss, err := newStore(kvSeed)
	if err != nil {
		return r, err
	}
	pairs := make([]kvstore.Pair, kvRecords)
	keys := make([]string, kvRecords)
	rng := sim.NewRand(kvSeed)
	for i := range pairs {
		val := make([]byte, 200+(i%7)*40)
		rng.Read(val)
		keys[i] = fmt.Sprintf("rec-%08d", (i*2654435761)%kvRecords)
		pairs[i] = kvstore.Pair{Key: keys[i], Value: val}
	}
	ph := beginPhase(ss)
	if err := ss.PutBatch(pairs); err != nil {
		return r, err
	}
	det["kv_put_sim_cycles_serial"], det["kv_put_sim_cycles_critical"], det["kv_put_faults"] = ph.end()
	ph = beginPhase(ss)
	got, err := ss.GetBatch(keys)
	if err != nil {
		return r, err
	}
	det["kv_get_sim_cycles_serial"], det["kv_get_sim_cycles_critical"], det["kv_get_faults"] = ph.end()

	// Invariant: the sharded store answers exactly like the sequential one.
	plain, err := kvstore.NewStore(key, kvstore.Options{Seed: kvSeed})
	if err != nil {
		return r, err
	}
	if err := plain.PutBatch(pairs); err != nil {
		return r, err
	}
	want, err := plain.GetBatch(keys)
	if err != nil {
		return r, err
	}
	if len(got) != len(want) {
		r.Problems = append(r.Problems, fmt.Sprintf("sharded store returned %d values, sequential store %d", len(got), len(want)))
	} else {
		for i := range got {
			if string(got[i]) != string(want[i]) {
				r.Problems = append(r.Problems, fmt.Sprintf("sharded store result for %s diverged from the sequential store", keys[i]))
				break
			}
		}
	}

	// ---- Workload 2: smartgrid billing end to end ----
	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed:            kvSeed,
		Meters:          kvMeters,
		MetersPerFeeder: 50,
		TicksPerDay:     288,
		BaseLoadKW:      0.8,
	})
	grid, err := newStore(kvSeed + 1)
	if err != nil {
		return r, err
	}
	// Ingest: one PutBatch per tick — meters → kvstore.
	ph = beginPhase(grid)
	for tick := int64(0); tick < kvTicks; tick++ {
		readings, _ := fleet.Tick(tick)
		batch := make([]kvstore.Pair, len(readings))
		for i, rd := range readings {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], math.Float64bits(rd.PowerKW))
			batch[i] = kvstore.Pair{
				Key:   fmt.Sprintf("%s|%s|%06d", rd.Feeder, rd.MeterID, tick),
				Value: v[:],
			}
		}
		if err := grid.PutBatch(batch); err != nil {
			return r, err
		}
	}
	det["grid_ingest_sim_cycles_serial"], _, det["grid_ingest_faults"] = ph.end()
	ph = beginPhase(grid)
	day, err := grid.Range("", "")
	if err != nil {
		return r, err
	}
	det["grid_scan_sim_cycles_serial"], _, _ = ph.end()

	// Aggregate per-feeder consumption with the parallel secure engine.
	input := make([]mapreduce.KV, len(day))
	for i, p := range day {
		input[i] = mapreduce.KV{Key: p.Key, Value: p.Value}
	}
	var rootKey cryptbox.Key
	rootKey[0] = 0x77
	engine, err := mapreduce.NewParallelSecureEngine(rootKey, mapreduce.ParallelConfig{
		Workers:     kvMRWorkers,
		Platform:    kvShardPlatform,
		WorkerBytes: 16 << 20,
	})
	if err != nil {
		return r, err
	}
	defer engine.Close()
	const hoursPerTick = 24.0 / 288
	totals, err := engine.Run(mapreduce.Job{
		Name:  "feeder-billing",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			emit(key[:strings.IndexByte(key, '|')], value)
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			var kwh float64
			for _, v := range values {
				kwh += math.Float64frombits(binary.LittleEndian.Uint64(v)) * hoursPerTick
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], math.Float64bits(kwh))
			return out[:], nil
		},
		Reducers: kvReducers,
	})
	if err != nil {
		return r, err
	}

	st := engine.Stats()
	det["grid_map_sim_cycles_serial"] = float64(st.MapSerialCycles)
	det["grid_map_sim_cycles_critical"] = float64(st.MapCriticalCycles)
	det["grid_reduce_sim_cycles_serial"] = float64(st.ReduceSerialCycles)
	det["grid_reduce_sim_cycles_critical"] = float64(st.ReduceCriticalCycles)
	det["grid_map_faults"] = float64(st.MapFaults)
	det["grid_reduce_faults"] = float64(st.ReduceFaults)
	// Feeder totals are summed in name order so the float sum is stable.
	var totalKWh float64
	for _, f := range sortedKeys(totals) {
		totalKWh += math.Float64frombits(binary.LittleEndian.Uint64(totals[f]))
	}
	det["grid_total_kwh"] = math.Round(totalKWh*1e6) / 1e6
	return r, nil
}
