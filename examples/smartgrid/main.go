// Smart-grid demo: both use cases of paper §VI end to end on the unified
// application plane. A simulated metering fleet streams sub-minute
// readings through the encrypted event bus into an *attested* analytics
// ReplicaSet — enclave-per-replica workers whose keys were released by the
// KeyBroker only against verified quotes — which detects power theft and
// voltage sags per feeder; every reading is simultaneously ingested into
// the sharded secure key/value store, and at end of day per-feeder billing
// is aggregated by the parallel secure map/reduce engine. A closed-loop
// orchestrator supervises the replica set the whole time: when a replica
// is crashed mid-run it is replaced within one simulated-millisecond
// monitoring tick, and the adaptation trace is printed at the end. The
// cloud provider sees ciphertext, queue depths and cycle counters — never
// a reading.
package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/kvstore"
	"securecloud/internal/mapreduce"
	"securecloud/internal/microsvc"
	"securecloud/internal/orchestrator"
	"securecloud/internal/sim"
	"securecloud/internal/smartgrid"
)

// feederPayload is one tick of one feeder's telemetry — the unit the
// plane routes by feeder key, so a feeder's history always lands on the
// same replica.
type feederPayload struct {
	Tick     int64               `json:"tick"`
	Feeder   string              `json:"feeder"`
	Readings []smartgrid.Reading `json:"readings"`
	TrueKW   float64             `json:"true_kw"`
}

// shardPlatform is the storage shards' platform: a small EPC so the day's
// readings exceed it and the store pays realistic paging costs.
func shardPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         2 << 20,
		EPCReservedBytes: 512 << 10,
		LLCBytes:         256 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	}
}

func main() {
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	bus := eventbus.New()

	// The analytics service: per-feeder theft detection and power-quality
	// monitoring inside replica enclaves. Feeder affinity means each
	// feeder's detector state lives on exactly one replica at a time.
	var mu sync.Mutex
	type feederState struct {
		detector *smartgrid.TheftDetector
		quality  *smartgrid.QualityMonitor
	}
	states := make(map[string]*feederState)
	stateOf := func(feeder string) *feederState {
		mu.Lock()
		defer mu.Unlock()
		st, ok := states[feeder]
		if !ok {
			st = &feederState{
				detector: smartgrid.NewTheftDetector(),
				quality:  smartgrid.NewQualityMonitor(),
			}
			states[feeder] = st
		}
		return st
	}
	handler := func(req []byte) ([]byte, error) {
		var p feederPayload
		if err := json.Unmarshal(req, &p); err != nil {
			return nil, err
		}
		st := stateOf(p.Feeder)
		var out []string
		for _, a := range st.detector.Observe(p.Tick, p.Readings, map[string]float64{p.Feeder: p.TrueKW}) {
			out = append(out, fmt.Sprintf("THEFT %s shortfall %.2f kW suspects %v", a.Feeder, a.GapKW, a.Suspects))
		}
		for _, e := range st.quality.Observe(p.Tick, p.Readings) {
			out = append(out, "QUALITY "+e.String())
		}
		if out == nil {
			return nil, nil
		}
		return json.Marshal(out)
	}

	var appRoot cryptbox.Key
	appRoot[0] = 0x5D
	keys, err := microsvc.NewServiceKeys(appRoot, "grid/analytics", "grid/readings", "grid/alerts")
	if err != nil {
		log.Fatal(err)
	}
	kb.Register("grid/analytics",
		attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner("grid/analytics")}}, keys)

	rs, err := microsvc.NewReplicaSet(bus, svc, kb, "grid/analytics", handler,
		microsvc.ReplicaSetConfig{
			Replicas:   2,
			InTopic:    "grid/readings",
			OutTopic:   "grid/alerts",
			TickBudget: sim.MillisToCycles(1),
		})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Stop()
	orch, err := orchestrator.New(orchestrator.Target{
		MaxQueueDepth: 8, MinReplicas: 2, MaxReplicas: 4, ScaleInBelow: 1,
	}, rs, rs.ReplicaHandles()...)
	if err != nil {
		log.Fatal(err)
	}
	client, err := microsvc.NewPlaneClient(bus, "grid/analytics", keys, "grid/readings", "grid/alerts")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The sharded secure store ingesting every reading for billing.
	var storeKey cryptbox.Key
	storeKey[0] = 0x5C
	store, err := kvstore.NewShardedStore(storeKey, kvstore.ShardedStoreConfig{
		Shards:     4,
		Seed:       42,
		Accounted:  true,
		Platform:   shardPlatform(),
		ShardBytes: 32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The fleet: 200 meters on 4 feeders; a thief on feeder-002 and a
	// voltage sag on feeder-003 midway through; a replica crash at tick
	// 150 to exercise the orchestrator.
	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed: 42, Meters: 200, MetersPerFeeder: 50, TicksPerDay: 2880, BaseLoadKW: 0.8,
	})
	fleet.InjectTheft(2*50+7, 120, 0.25) // meter-00107 under-reports 75%
	fleet.InjectSag(3, 180, 186, 0.82)   // 3-minute sag on feeder-003

	const horizon = 2 * 120 // two detector windows
	const crashTick = 150
	var alerts []string
	nReadings := 0
	for tick := int64(0); tick < horizon; tick++ {
		if tick == crashTick {
			if id := rs.InjectCrash(0); id != "" {
				fmt.Printf("t%03d injected crash of %s\n", tick, id)
			}
		}
		readings, feederKW := fleet.Tick(tick)

		// Group by feeder: one sealed plane request per feeder per tick,
		// plus one store batch for the whole tick.
		byFeeder := make(map[string][]smartgrid.Reading)
		batch := make([]kvstore.Pair, len(readings))
		for i, r := range readings {
			byFeeder[r.Feeder] = append(byFeeder[r.Feeder], r)
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], math.Float64bits(r.PowerKW))
			batch[i] = kvstore.Pair{
				Key:   fmt.Sprintf("%s|%s|%06d", r.Feeder, r.MeterID, tick),
				Value: v[:],
			}
		}
		feeders := make([]string, 0, len(byFeeder))
		for f := range byFeeder {
			feeders = append(feeders, f)
		}
		sort.Strings(feeders)
		reqs := make([]microsvc.PlaneRequest, 0, len(feeders))
		for _, f := range feeders {
			body, err := json.Marshal(feederPayload{
				Tick: tick, Feeder: f, Readings: byFeeder[f], TrueKW: feederKW[f],
			})
			if err != nil {
				log.Fatal(err)
			}
			reqs = append(reqs, microsvc.PlaneRequest{Key: f, Body: body})
		}
		if _, err := client.SendTenantIDs("", reqs); err != nil {
			log.Fatal(err)
		}
		nReadings += len(batch)
		if err := store.PutBatch(batch); err != nil {
			log.Fatal(err)
		}

		// One closed-loop tick: serve, observe, collect alerts.
		if _, err := rs.Step(); err != nil {
			log.Fatal(err)
		}
		if _, err := orch.Observe(); err != nil {
			log.Fatal(err)
		}
		replies, err := client.Poll(0)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range replies {
			var batch []string
			if err := json.Unmarshal(r.Body, &batch); err != nil {
				log.Fatal(err)
			}
			for _, a := range batch {
				alerts = append(alerts, fmt.Sprintf("t%03d %s", tick, a))
			}
		}
	}

	fmt.Printf("\nprocessed %d ticks (%d readings) through %d attested replicas; alerts:\n",
		horizon, nReadings, rs.Replicas())
	for _, a := range alerts {
		fmt.Println("  ", a)
	}
	fmt.Println("\nadaptation trace:")
	for _, l := range orch.Trace() {
		fmt.Println("  ", l)
	}

	// End of day: scan the store and bill per feeder with the parallel
	// secure map/reduce engine.
	day, err := store.Range("", "")
	if err != nil {
		log.Fatal(err)
	}
	input := make([]mapreduce.KV, len(day))
	for i, p := range day {
		input[i] = mapreduce.KV{Key: p.Key, Value: p.Value}
	}
	var mrRoot cryptbox.Key
	mrRoot[0] = 0x77
	engine, err := mapreduce.NewParallelSecureEngine(mrRoot, mapreduce.ParallelConfig{
		Workers:     4,
		Platform:    shardPlatform(),
		WorkerBytes: 16 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	hoursPerTick := 24.0 / float64(fleet.Config().TicksPerDay)
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
		Reducers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	feeders := make([]string, 0, len(totals))
	for f := range totals {
		feeders = append(feeders, f)
	}
	sort.Strings(feeders)
	fmt.Printf("\nbilling over %d stored readings (4 store shards, 4 map/reduce enclaves):\n", len(day))
	for _, f := range feeders {
		fmt.Printf("  %s: %.3f kWh\n", f, math.Float64frombits(binary.LittleEndian.Uint64(totals[f])))
	}

	tot := rs.Totals()
	st := engine.Stats()
	fmt.Printf("\nplane accounting: %d replica enclaves ever launched, %d cycles summed / %d critical path (%.2fx), front-end %d cycles\n",
		tot.Launched, tot.SerialCycles, tot.CriticalCycles,
		float64(tot.SerialCycles)/float64(tot.CriticalCycles), tot.FrontCycles)
	fmt.Printf("map/reduce: %.2fx map, %.2fx reduce enclave-per-worker sim-speedup\n",
		st.MapSpeedup(), st.ReduceSpeedup())
	fmt.Printf("key releases for grid/analytics: %d, every one against a verified quote\n",
		kb.Released("grid/analytics"))
}
