package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"securecloud/internal/cryptbox"
	"securecloud/internal/kvstore"
	"securecloud/internal/mapreduce"
	"securecloud/internal/smartgrid"
)

const (
	billingTicksPerDay = 96 // 15-minute billing granularity
	billingDays        = 4  // distinct pre-generated days, replayed in turn
)

// billingJob is the paper's smart-grid use case on long-lived services: a
// day of meter readings is ingested tick by tick into the sharded secure
// store (overwriting yesterday's keys), read back with one range scan, and
// reduced to per-feeder energy by the parallel secure map/reduce engine.
type billingJob struct {
	store  *kvstore.ShardedStore
	engine *mapreduce.ParallelSecureEngine
	meters int
	// days[d][t] is the PutBatch of tick t of day d; want[d] is the plain
	// mapreduce.Run result over the same day.
	days [][][]kvstore.Pair
	want []map[string][]byte
	next int

	mrCycles, mrFaults uint64
	last               mapreduce.PhaseStats
}

func newBillingJob() workload { return &billingJob{} }

func (w *billingJob) shape() shape {
	return shape{opsPerTick: 1, nSim: 16, payloadBytes: 8, warmTicks: billingDays}
}

// billingMap keys a reading by its feeder: the store key is
// feeder|meter|tick.
func billingMap(key string, value []byte, emit func(string, []byte)) {
	feeder, _, _ := strings.Cut(key, "|")
	emit(feeder, value)
}

// billingReduce sums a feeder's readings. Readings are whole watts, so the
// sum does not depend on the order the shuffle delivers them in and the
// secure engine must agree with the plain one to the byte.
func billingReduce(_ string, values [][]byte) ([]byte, error) {
	var watts uint64
	for _, v := range values {
		watts += binary.LittleEndian.Uint64(v)
	}
	// Watts × 0.25 h per tick = watt-hours × 4.
	return binary.LittleEndian.AppendUint64(nil, watts), nil
}

func billingInput(pairs []kvstore.Pair) mapreduce.Job {
	in := make([]mapreduce.KV, len(pairs))
	for i, p := range pairs {
		in[i] = mapreduce.KV{Key: p.Key, Value: p.Value}
	}
	return mapreduce.Job{Name: "daily-billing", Input: in, Map: billingMap, Reduce: billingReduce, Reducers: 4}
}

func (w *billingJob) setup(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	var storeKey, rootKey cryptbox.Key
	rng.Read(storeKey[:])
	rng.Read(rootKey[:])
	var err error
	w.store, err = kvstore.NewShardedStore(storeKey, kvstore.ShardedStoreConfig{
		Shards: 4, Seed: e.seed, Accounted: true, ShardBytes: 4 << 20,
	})
	if err != nil {
		return err
	}
	w.engine, err = mapreduce.NewParallelSecureEngine(rootKey, mapreduce.ParallelConfig{Workers: 2})
	if err != nil {
		return err
	}

	w.meters = e.scale(50, 10)
	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed: e.seed, Meters: w.meters, MetersPerFeeder: 10,
		TicksPerDay: billingTicksPerDay, BaseLoadKW: 0.8,
	})
	for d := 0; d < billingDays; d++ {
		day := make([][]kvstore.Pair, billingTicksPerDay)
		var all []kvstore.Pair
		for t := range day {
			readings, _ := fleet.Tick(int64(d*billingTicksPerDay + t))
			batch := make([]kvstore.Pair, len(readings))
			for i, r := range readings {
				watts := uint64(math.Round(r.PowerKW * 1000))
				batch[i] = kvstore.Pair{
					Key:   fmt.Sprintf("%s|%s|%02d", r.Feeder, r.MeterID, t),
					Value: binary.LittleEndian.AppendUint64(nil, watts),
				}
			}
			day[t] = batch
			all = append(all, batch...)
		}
		want, err := mapreduce.Run(billingInput(all))
		if err != nil {
			return err
		}
		w.days, w.want = append(w.days, day), append(w.want, want)
	}

	return nil
}

func (w *billingJob) tick(e *env) error {
	d := w.next % billingDays
	w.next++
	t0 := time.Now()
	end := e.tr.span("kvstore.ingest")
	for _, batch := range w.days[d] {
		if err := w.store.PutBatch(batch); err != nil {
			end()
			return err
		}
	}
	end()
	end = e.tr.span("kvstore.range")
	rows, err := w.store.Range("", "")
	end()
	if err != nil {
		return err
	}
	end = e.tr.span("mapreduce.run")
	got, err := w.engine.Run(billingInput(rows))
	end()
	now := time.Now()
	if err != nil {
		return err
	}
	w.last = w.engine.Stats()
	w.mrCycles += uint64(w.last.MapSerialCycles + w.last.ReduceSerialCycles)
	w.mrFaults += w.last.Faults

	want := w.want[d]
	same := len(got) == len(want) && len(rows) == w.meters*billingTicksPerDay
	for feeder, wh := range want {
		same = same && bytes.Equal(got[feeder], wh)
	}
	if !same {
		e.fail(1)
		return nil
	}
	e.ok(now.Sub(t0), now)
	return nil
}

func (w *billingJob) sim() (cycles, faults uint64) {
	return uint64(w.store.Cycles()) + w.mrCycles, w.store.Faults() + w.mrFaults
}

// verify has nothing left to do: every day's totals are checked against
// plain mapreduce.Run in the loop.
func (w *billingJob) verify(*env) error { return nil }

func (w *billingJob) layers(e *env, lc *layerCtx) error {
	v, ops := lc.vals, lc.win.attempted
	lc.perCall("kvstore.range_ms", "kvstore.range", 1e3)
	lc.perCall("mapreduce.run_ms_per_job", "mapreduce.run", 1e3)
	lc.perOp("kvstore.ingest_us_per_reading", "kvstore.ingest", ops*w.meters*billingTicksPerDay)
	v["mapreduce.map_sim_cycles"] = float64(w.last.MapSerialCycles)
	v["mapreduce.reduce_sim_cycles"] = float64(w.last.ReduceSerialCycles)
	if crit := w.last.MapCriticalCycles + w.last.ReduceCriticalCycles; crit > 0 {
		v["mapreduce.sim_speedup"] = float64(w.last.MapSerialCycles+w.last.ReduceSerialCycles) / float64(crit)
	}
	return nil
}

func (w *billingJob) close() {
	if w.engine != nil {
		w.engine.Close()
	}
}
