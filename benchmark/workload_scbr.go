package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/scbr"
	"securecloud/internal/sim"
)

const (
	scbrSubscribers  = 8
	scbrPayloadBytes = 1200 // routing state per subscription (Figure 3's setting)
	scbrCheckCost    = 450
	scbrEventBytes   = 256
)

// scbrStack is an attested SCBR broker on the SGX-v1 reference platform
// with a pre-filled subscription store. Subscription i (broker ID i+1) is
// owned by subscriber i mod 8, so every oracle can rebuild ownership, and
// the whole subscription sequence, from the seed alone.
type scbrStack struct {
	shards int
	broker *scbr.Broker
	subs   []*scbr.Client
	pub    *scbr.Client
	gen    *scbr.Workload
	filled int // subscriptions registered by the pre-fill
}

func (s *scbrStack) build(seed int64, shards int, targetBytes int64) error {
	s.shards = shards
	cfg := enclave.DefaultConfig()
	platform := enclave.NewPlatform(cfg)
	signer := cryptbox.Sum([]byte("scbr-bench-signer"))
	front, err := platform.ECreate(8<<20, signer)
	if err != nil {
		return err
	}
	if _, err := front.EAdd([]byte("scbr-broker-v1")); err != nil {
		return err
	}
	if err := front.EInit(); err != nil {
		return err
	}
	s.broker, err = scbr.NewBroker(front, scbr.BrokerConfig{
		PayloadBytes: scbrPayloadBytes, CheckCost: scbrCheckCost,
		Shards: shards, MatchWorkers: 2,
		// Room for the store, the churn on top of it and the arena's slack.
		ShardBytes: uint64(targetBytes)/uint64(shards) + 32<<20,
	})
	if err != nil {
		return err
	}
	// Every client attests the broker enclave before handing over filters.
	svc := attest.NewService()
	quoter, err := svc.Provision(platform, "scbr-bench-platform")
	if err != nil {
		return err
	}
	policy := attest.Policy{AllowedMRSigner: []cryptbox.Digest{signer}}
	for i := 0; i < scbrSubscribers; i++ {
		c, err := scbr.Connect(s.broker, fmt.Sprintf("sub-%d", i), svc, quoter, policy)
		if err != nil {
			return err
		}
		s.subs = append(s.subs, c)
	}
	if s.pub, err = scbr.Connect(s.broker, "pub-0", svc, quoter, policy); err != nil {
		return err
	}
	s.gen = scbr.NewWorkload(scbr.DefaultWorkload(seed))
	for s.broker.Index().MemoryBytes() < targetBytes {
		id, err := s.subs[s.filled%scbrSubscribers].Subscribe(s.broker, s.gen.NextSubscription())
		if err != nil {
			return err
		}
		s.filled++
		if id != uint64(s.filled) {
			return fmt.Errorf("broker assigned id %d to subscription %d", id, s.filled)
		}
	}
	return nil
}

func (s *scbrStack) sim() (cycles, faults uint64) {
	front := s.broker.Enclave().Memory()
	return uint64(s.broker.Index().Cycles() + front.Cycles()), s.broker.Index().Faults() + front.Faults()
}

// events draws n publications from the stack's generator, each carrying a
// payload that starts with its own index so a delivery names its event.
func (s *scbrStack) events(n int) []scbr.Event {
	out := make([]scbr.Event, n)
	for i := range out {
		ev := s.gen.NextEvent()
		ev.Payload = make([]byte, scbrEventBytes)
		binary.BigEndian.PutUint64(ev.Payload, uint64(i))
		for j := 8; j < len(ev.Payload); j++ {
			ev.Payload[j] = byte(i + j)
		}
		out[i] = ev
	}
	return out
}

// twin rebuilds the reference index: an unaccounted scbr.Index holding the
// first n subscriptions of the seed's sequence minus the IDs in removed
// (a half-open range), with the broker's IDs. Its MatchNaive walks every
// stored filter and touches no simulated memory.
func scbrTwin(seed int64, n int, removedLo, removedHi uint64) *scbr.Index {
	gen := scbr.NewWorkload(scbr.DefaultWorkload(seed))
	twin := scbr.NewIndex(scbr.IndexConfig{})
	for i := 1; i <= n; i++ {
		sub := gen.NextSubscription()
		if id := uint64(i); id < removedLo || id >= removedHi {
			sub.ID = id
			twin.Insert(sub)
		}
	}
	return twin
}

// recipients maps matched subscription IDs to the distinct subscribers
// that own them.
func recipients(ids []uint64) int {
	var seen [scbrSubscribers]bool
	n := 0
	for _, id := range ids {
		if owner := (id - 1) % scbrSubscribers; !seen[owner] {
			seen[owner] = true
			n++
		}
	}
	return n
}

// probeCycleShares replays the workload's store on a benchmark-owned
// scbr.Index over its own enclave memory — the only place Breakdown() is
// reachable from outside the packages — runs ops on it and reports each
// cause's share of the cycles they charged.
func probeCycleShares(seed int64, storeBytes int64, ops func(ix *scbr.Index, gen *scbr.Workload), v map[string]float64) error {
	enc, arena, err := enclave.NewWorker(enclave.DefaultConfig(), uint64(storeBytes)+32<<20, "scbr-bench-probe")
	if err != nil {
		return err
	}
	defer enc.Destroy()
	mem := enc.Memory()
	ix := scbr.NewIndex(scbr.IndexConfig{Mem: mem, Arena: arena, PayloadBytes: scbrPayloadBytes, CheckCost: scbrCheckCost})
	gen := scbr.NewWorkload(scbr.DefaultWorkload(seed))
	for ix.MemoryBytes() < storeBytes {
		ix.Insert(gen.NextSubscription())
	}
	mem.ResetAccounting()
	ops(ix, gen)
	var total sim.Cycles
	bd := mem.Breakdown()
	for _, c := range bd {
		total += c
	}
	if total == 0 {
		return nil
	}
	for _, cause := range []string{"epc-fault", "mee", "dram", "llc-hit", "transition", "aex", "cpu"} {
		v["enclave.cycle_share."+cause] = float64(bd[cause]) / float64(total)
	}
	return nil
}

// ---- scbr_publish_resident ----

type scbrPublish struct {
	scbrStack
	seed     int64
	pool     []scbr.Event
	next     int
	first    []int // delivered count of each pool event's first publish, -1 before
	uses     []int // ops that published each pool event
	sinceRcv int
	// delivered and received count deliveries since set-up; they must
	// agree once the queues are drained.
	delivered, received int
	badPayloads         int
	shardBase           []sim.Cycles // at the end of the pre-fill
	warm                int
}

func newSCBRPublish() workload { return &scbrPublish{} }

func (w *scbrPublish) shape() shape {
	return shape{opsPerTick: 1, nSim: 2048, payloadBytes: scbrEventBytes, warmTicks: w.warm}
}

func (w *scbrPublish) setup(e *env) error {
	w.seed = e.seed
	if err := w.build(e.seed, 2, int64(e.scale(40, 2))<<20); err != nil {
		return err
	}
	w.pool = w.events(e.scale(512, 64))
	w.first = make([]int, len(w.pool))
	for i := range w.first {
		w.first[i] = -1
	}
	w.uses = make([]int, len(w.pool))
	w.warm = e.scale(256, 32)
	w.shardBase = w.broker.Index().ShardCycles()
	return nil
}

func (w *scbrPublish) tick(e *env) error {
	idx := w.next % len(w.pool)
	w.next++
	t0 := time.Now()
	end := e.tr.span("scbr.publish")
	n, err := w.pub.Publish(w.broker, w.pool[idx])
	end()
	now := time.Now()
	if err != nil {
		return err
	}
	w.delivered += n
	w.uses[idx]++
	// The store does not change, so an event must reach the same number
	// of subscribers every time; verify checks the first count against the
	// reference matcher.
	if w.first[idx] < 0 {
		w.first[idx] = n
	}
	if n != w.first[idx] {
		e.fail(1)
	} else {
		e.ok(now.Sub(t0), now)
	}
	if w.sinceRcv++; w.sinceRcv == 16 {
		w.sinceRcv = 0
		return w.receiveAll(e)
	}
	return nil
}

// receiveAll drains every subscriber and checks each delivery is the
// untampered payload of a published event.
func (w *scbrPublish) receiveAll(e *env) error {
	defer e.tr.span("scbr.receive")()
	for _, c := range w.subs {
		evs, err := c.Receive(w.broker)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			w.received++
			if len(ev.Payload) != scbrEventBytes {
				w.badPayloads++
				continue
			}
			i := binary.BigEndian.Uint64(ev.Payload)
			if i >= uint64(len(w.pool)) || !bytes.Equal(ev.Payload, w.pool[i].Payload) {
				w.badPayloads++
			}
		}
	}
	return nil
}

// verify checks, for every event the run published, that the sharded
// index's match equals the reference matcher's on a twin of the store,
// and that the broker delivered to exactly the subscribers owning a
// matched subscription. It runs after the window: MatchNaive on the live
// index would charge, and evict, simulated memory.
func (w *scbrPublish) verify(e *env) error {
	if err := w.receiveAll(e); err != nil {
		return err
	}
	if w.received != w.delivered || w.badPayloads > 0 {
		e.failDone(1 + w.badPayloads)
	}
	twin := scbrTwin(w.seed, w.filled, 0, 0)
	for i, ev := range w.pool {
		if w.uses[i] == 0 {
			continue
		}
		want := twin.MatchNaive(ev)
		slices.Sort(want)
		got := w.broker.Index().Match(ev)
		if !slices.Equal(got, want) || w.first[i] != recipients(want) {
			e.failDone(w.uses[i])
		}
	}
	return nil
}

func (w *scbrPublish) layers(e *env, lc *layerCtx) error {
	v, ops := lc.vals, lc.win.attempted
	ix := w.broker.Index()
	lc.perOp("scbr.publish_us_per_event", "scbr.publish", ops)
	v["scbr.store_mb"] = float64(ix.MemoryBytes()) / (1 << 20)
	if w.next > 0 {
		v["scbr.deliveries_per_event"] = float64(w.delivered) / float64(w.next)
	}
	if per := v["scbr.deliveries_per_event"]; per > 0 {
		// Receive ran once per 16 publishes over the traced window.
		v["scbr.receive_us_per_delivery"] = lc.agg["scbr.receive"].TotalUS / (float64(ops) * per)
	}
	var hi, sum sim.Cycles
	for i, c := range ix.ShardCycles() {
		d := c - w.shardBase[i]
		sum += d
		hi = max(hi, d)
	}
	if sum > 0 {
		v["scbr.shard_cycle_skew"] = float64(hi) * float64(w.shards) / float64(sum)
	}

	// Probes on the workload's own events: the broker on a pre-sealed
	// envelope (no client-side seal), and the sharded matcher alone.
	n := min(len(w.pool), 256)
	envs := make([]scbr.Envelope, n)
	for i := range envs {
		sealed, err := w.pub.SealEventBytes(w.pool[i])
		if err != nil {
			return err
		}
		envs[i] = scbr.Envelope{ClientID: w.pub.ID, Kind: scbr.KindPublication, Sealed: sealed}
	}
	t0 := time.Now()
	for _, env := range envs {
		if _, err := w.broker.Publish(env); err != nil {
			return err
		}
	}
	v["scbr.broker_publish_us"] = usOf(time.Since(t0)) / float64(n)
	for _, c := range w.subs {
		w.broker.Drain(c.ID)
	}
	checks0 := ix.Checks()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		ix.Match(w.pool[i])
	}
	v["scbr.match_us_per_event"] = usOf(time.Since(t0)) / float64(n)
	v["scbr.checks_per_match"] = float64(ix.Checks()-checks0) / float64(n)
	if per := v["scbr.deliveries_per_event"]; per > 0 {
		v["scbr.deliver_us_per_delivery"] = (v["scbr.broker_publish_us"] - v["scbr.match_us_per_event"]) / per
	}
	return probeCycleShares(w.seed, ix.MemoryBytes()/int64(w.shards), func(ix *scbr.Index, gen *scbr.Workload) {
		for i := 0; i < n; i++ {
			ix.MatchSnapshot(w.pool[i])
		}
	}, v)
}

func (w *scbrPublish) close() {}

// ---- scbr_churn_paging ----

const (
	// scbrChurnFIFO is how many of the newest subscriptions stay
	// registered: a churn pair registers one and removes the oldest of
	// this many.
	scbrChurnFIFO = 1000
	// scbrChurnPairs is how many pairs make one op. Index.Remove scans the
	// forest for its target, so one pair costs anything from nothing to a
	// full scan of a paging store — a flat distribution whose median moves
	// by a fifth between runs. The sum of four is bell-shaped enough for
	// p50 and p95 to hold still.
	scbrChurnPairs = 4
)

type scbrChurn struct {
	scbrStack
	seed int64
	pool []scbr.Subscription
	next int    // pool subscriptions registered so far
	head uint64 // oldest ID still in the FIFO
	size int    // store size in subscriptions, constant across ops

	subUS, unsubUS   []time.Duration // traced ops only
	subCyc, unsubCyc uint64
	tracedPairs      int
	warm             int
}

func newSCBRChurn() workload { return &scbrChurn{} }

func (w *scbrChurn) shape() shape {
	return shape{opsPerTick: 1, nSim: 192, payloadBytes: scbrPayloadBytes, warmTicks: w.warm}
}

func (w *scbrChurn) setup(e *env) error {
	w.seed = e.seed
	if err := w.build(e.seed, 1, int64(e.scale(140, 3))<<20); err != nil {
		return err
	}
	w.size = w.broker.Index().Count()
	w.head = uint64(w.filled - scbrChurnFIFO + 1)
	w.pool = make([]scbr.Subscription, e.scale(8192, 2048))
	for i := range w.pool {
		w.pool[i] = w.gen.NextSubscription()
	}
	w.warm = e.scale(8, 2)
	return nil
}

func (w *scbrChurn) tick(e *env) error {
	var lat time.Duration
	good := true
	for i := 0; i < scbrChurnPairs; i++ {
		d, ok, err := w.pair(e)
		if err != nil {
			return err
		}
		lat, good = lat+d, good && ok
	}
	if !good {
		e.fail(1)
		return nil
	}
	e.ok(lat, time.Now())
	return nil
}

// pair registers the next pool subscription and removes the oldest one
// still in the FIFO. It returns the time spent inside the two broker calls
// and whether the broker assigned the expected id and kept the store size.
func (w *scbrChurn) pair(e *env) (time.Duration, bool, error) {
	sub := w.pool[w.next%len(w.pool)] // a long window registers the pool's filters again, under new IDs
	owner := w.subs[(w.filled+w.next)%scbrSubscribers]
	wantID := uint64(w.filled + w.next + 1)
	w.next++
	oldest := w.head
	w.head++
	oldOwner := w.subs[(oldest-1)%scbrSubscribers]
	traced := e.tr.enabled()
	var c0, c1, c2 uint64
	if traced {
		c0, _ = w.sim()
	}

	t0 := time.Now()
	end := e.tr.span("scbr.subscribe")
	id, err := owner.Subscribe(w.broker, sub)
	end()
	subTook := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	if traced {
		c1, _ = w.sim()
	}
	t1 := time.Now()
	end = e.tr.span("scbr.unsubscribe")
	err = w.broker.Unsubscribe(oldOwner.ID, oldest)
	end()
	unsubTook := time.Since(t1)
	if err != nil {
		return 0, false, err
	}
	if traced {
		c2, _ = w.sim()
		w.subUS, w.unsubUS = append(w.subUS, subTook), append(w.unsubUS, unsubTook)
		w.subCyc, w.unsubCyc = w.subCyc+c1-c0, w.unsubCyc+c2-c1
		w.tracedPairs++
	}
	return subTook + unsubTook, id == wantID && w.broker.Index().Count() == w.size, nil
}

// verify publishes a handful of events into the churned store and checks
// match and delivery against a twin holding what must have survived: the
// pre-fill rebuilt from the seed plus everything the run registered,
// minus everything it removed.
func (w *scbrChurn) verify(e *env) error {
	twin := scbrTwin(w.seed, w.filled, uint64(w.filled-scbrChurnFIFO+1), w.head)
	for j := 0; j < w.next; j++ {
		if id := uint64(w.filled + j + 1); id >= w.head {
			sub := w.pool[j%len(w.pool)]
			sub.ID = id
			twin.Insert(sub)
		}
	}
	if twin.Count() != w.size {
		e.failDone(1)
	}
	for _, ev := range w.events(e.scale(8, 4)) {
		want := twin.MatchNaive(ev)
		slices.Sort(want)
		n, err := w.pub.Publish(w.broker, ev)
		if err != nil {
			return err
		}
		if got := w.broker.Index().Match(ev); !slices.Equal(got, want) || n != recipients(want) {
			e.failDone(1)
		}
	}
	for _, c := range w.subs {
		w.broker.Drain(c.ID)
	}
	return nil
}

func (w *scbrChurn) layers(e *env, lc *layerCtx) error {
	v := lc.vals
	v["scbr.store_mb"] = float64(w.broker.Index().MemoryBytes()) / (1 << 20)
	if w.tracedPairs > 0 {
		if p50, err := quantileOf(w.subUS, 0.5); err == nil {
			v["scbr.subscribe_us_p50"] = usOf(p50)
		}
		if p50, err := quantileOf(w.unsubUS, 0.5); err == nil {
			v["scbr.unsubscribe_us_p50"] = usOf(p50)
		}
		v["scbr.subscribe_sim_cycles"] = float64(w.subCyc) / float64(w.tracedPairs)
		v["scbr.unsubscribe_sim_cycles"] = float64(w.unsubCyc) / float64(w.tracedPairs)
	}
	pairs := e.scale(64, 16)
	return probeCycleShares(w.seed, w.broker.Index().MemoryBytes(), func(ix *scbr.Index, gen *scbr.Workload) {
		// The probe's store holds IDs 1..n in registration order; remove
		// the oldest of the newest scbrChurnFIFO, as the workload does.
		oldest := uint64(ix.Count() - scbrChurnFIFO + 1)
		for i := 0; i < pairs; i++ {
			ix.Insert(gen.NextSubscription())
			ix.Remove(oldest)
			oldest++
		}
	}, v)
}

func (w *scbrChurn) close() {}
