package scbr

import (
	"math"
	"sync/atomic"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/shard"
)

func BenchmarkInsertUnaccounted(b *testing.B) {
	ix := NewIndex(IndexConfig{})
	w := NewWorkload(DefaultWorkload(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(w.NextSubscription())
	}
}

func BenchmarkMatch10k(b *testing.B) {
	ix := NewIndex(IndexConfig{})
	w := NewWorkload(DefaultWorkload(2))
	for i := 0; i < 10000; i++ {
		ix.Insert(w.NextSubscription())
	}
	events := make([]Event, 256)
	for i := range events {
		events[i] = w.NextEvent()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Match(events[i%len(events)])
	}
}

// BenchmarkIndexChurnPaging is the write path under paging in miniature:
// an accounted store of 1.5 × the usable EPC (on the shrunken golden
// platform), one op = register a new subscription and unregister the
// oldest of the newest 200, as the repo benchmark's scbr_churn_paging
// does. sim-cycles/op and faults/op are deterministic at a fixed b.N;
// a Remove that walks the store again shows up here as thousands of
// faults per op instead of a handful.
func BenchmarkIndexChurnPaging(b *testing.B) {
	const fifo = 200
	cfg := goldenPlatform()
	store := int64(cfg.EPCBytes-cfg.EPCReservedBytes) * 3 / 2
	enc, arena, err := enclave.NewWorker(cfg, uint64(store)+(2<<20), "scbr-bench-churn")
	if err != nil {
		b.Fatal(err)
	}
	mem := enc.Memory()
	ix := NewIndex(IndexConfig{Mem: mem, Arena: arena, PayloadBytes: 600, CheckCost: 450})
	w := NewWorkload(DefaultWorkload(42))
	for ix.MemoryBytes() < store {
		ix.Insert(w.NextSubscription())
	}
	oldest := uint64(ix.Count() - fifo + 1)
	mem.ResetAccounting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(w.NextSubscription())
		if !ix.Remove(oldest) {
			b.Fatalf("Remove(%d) missed", oldest)
		}
		oldest++
	}
	b.StopTimer()
	b.ReportMetric(float64(mem.Cycles())/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(mem.Faults())/float64(b.N), "faults/op")
}

// BenchmarkCovers is one containment check of Insert's descent: two
// workload filters compiled against one intern table.
func BenchmarkCovers(b *testing.B) {
	w := NewWorkload(DefaultWorkload(3))
	in := newInterner()
	f1, f2 := in.compile(w.NextSubscription()), in.compile(w.NextSubscription())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coversSink = f1.covers(f2)
	}
}

var coversSink bool

// BenchmarkBrokerPublishParallel is the multi-publisher throughput
// benchmark of the sharded broker: pre-sealed publications from several
// publishers drive the full publish→match→deliver pipeline concurrently
// (run with -cpu 1,4 to see core scaling).
//
// The simulated metrics are measured in a deterministic sequential pass
// before the timed loop: with the subscription store frozen, every match
// runs against a read-only snapshot, so per-op sim-cycles and faults are a
// pure function of the workload — bit-identical at every -cpu setting.
// sim-speedup is the simulator's own scaling statement: the ratio of
// summed per-shard match cycles (serial execution) to the per-publish
// critical path (slowest shard), i.e. the speedup an ideal shard-per-core
// machine realises. Wall-clock ns/op additionally shows host scaling when
// real cores exist.
//
// The shard count is pinned (topology parameter) so figures are comparable
// across -cpu runs; only MatchWorkers follows GOMAXPROCS.
func BenchmarkBrokerPublishParallel(b *testing.B) {
	const (
		shards       = 4
		nSubs        = 20000
		nSubscribers = 8
		nPublishers  = 4
		nEvents      = 64
	)
	// Shrunken platform (4 MiB EPC per shard) so the store is swap-bound —
	// the regime where parallel matching matters most.
	platform := enclave.Config{
		EPCBytes:         4 << 20,
		EPCReservedBytes: 1 << 20,
		LLCBytes:         256 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	}
	p := enclave.NewPlatform(platform)
	var signer cryptbox.Digest
	enc, err := p.ECreate(2<<20, signer)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("scbr-bench")); err != nil {
		b.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		b.Fatal(err)
	}
	bk, err := NewBroker(enc, BrokerConfig{
		PayloadBytes: 600,
		CheckCost:    450,
		Shards:       shards,
		ShardBytes:   24 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}

	subscribers := make([]*Client, nSubscribers)
	for i := range subscribers {
		c, err := Connect(bk, "sub-"+itoa(i), nil, nil, attest.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		subscribers[i] = c
	}
	w := NewWorkload(DefaultWorkload(42))
	for i := 0; i < nSubs; i++ {
		if _, err := subscribers[i%nSubscribers].Subscribe(bk, w.NextSubscription()); err != nil {
			b.Fatal(err)
		}
	}
	publishers := make([]*Client, nPublishers)
	for i := range publishers {
		c, err := Connect(bk, "pub-"+itoa(i), nil, nil, attest.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		publishers[i] = c
	}
	events := make([]Event, nEvents)
	for i := range events {
		events[i] = w.NextEvent()
	}
	// Pre-seal the envelopes so the timed loop measures the broker
	// pipeline, not client-side encoding.
	envs := make([][]Envelope, nPublishers)
	for pi, c := range publishers {
		envs[pi] = make([]Envelope, nEvents)
		for i, e := range events {
			sealed, err := c.SealEventBytes(e)
			if err != nil {
				b.Fatal(err)
			}
			envs[pi][i] = Envelope{ClientID: c.ID, Kind: KindPublication, Sealed: sealed}
		}
	}

	// Deterministic accounting pass (see doc comment).
	six := bk.Index()
	six.ResetAccounting()
	var serial, critical uint64
	for i := 0; i < nEvents; i++ {
		before := six.ShardCycles()
		if _, err := bk.Publish(envs[0][i]); err != nil {
			b.Fatal(err)
		}
		_, sum, max := shard.Spread(before, six.ShardCycles())
		serial += uint64(sum)
		critical += uint64(max)
	}
	faults := six.Faults()
	for _, c := range subscribers {
		bk.Drain(c.ID)
	}

	b.ResetTimer()
	var pubIdx atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		pi := int(pubIdx.Add(1)-1) % nPublishers
		i := 0
		for pb.Next() {
			if _, err := bk.Publish(envs[pi][i%nEvents]); err != nil {
				b.Error(err)
				return
			}
			i++
			// Keep queues bounded without a drain per publish.
			if i%64 == 0 {
				bk.Drain(subscribers[(i/64)%nSubscribers].ID)
			}
		}
	})
	b.StopTimer()
	for _, c := range subscribers {
		bk.Drain(c.ID)
	}
	// Reported after the timed loop: ResetTimer discards earlier metrics.
	b.ReportMetric(float64(serial)/nEvents, "sim-cycles/match")
	b.ReportMetric(float64(critical)/nEvents, "sim-critical-cycles/match")
	b.ReportMetric(float64(serial)/float64(critical), "sim-speedup")
	b.ReportMetric(float64(faults)/nEvents, "faults/match")
}

// BenchmarkBrokerDeliverySeal isolates the broker's delivery seal path:
// one publication matching many subscribers, so each Publish re-seals the
// plaintext once per recipient session and enqueues the batch. Run with
// -benchmem — the per-delivery allocation count is the profile-identified
// hot path the wire front end optimizes.
func BenchmarkBrokerDeliverySeal(b *testing.B) {
	const nSubscribers = 16
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	enc, err := p.ECreate(64<<20, signer)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("scbr-bench-seal")); err != nil {
		b.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		b.Fatal(err)
	}
	bk, err := NewBroker(enc, BrokerConfig{PayloadBytes: 600, CheckCost: 450, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Every subscriber registers the same broad filter so one event fans
	// out to all of them — the seal loop dominates.
	w := NewWorkload(DefaultWorkload(7))
	s := w.NextSubscription()
	subscribers := make([]*Client, nSubscribers)
	for i := range subscribers {
		c, err := Connect(bk, "seal-sub-"+itoa(i), nil, nil, attest.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		subscribers[i] = c
		if _, err := c.Subscribe(bk, s); err != nil {
			b.Fatal(err)
		}
	}
	pub, err := Connect(bk, "seal-pub", nil, nil, attest.Policy{})
	if err != nil {
		b.Fatal(err)
	}
	// An event matching the shared subscription: publish it once to learn
	// the delivered count, then time the steady state.
	e := eventCovering(s)
	sealed, err := pub.SealEventBytes(e)
	if err != nil {
		b.Fatal(err)
	}
	env := Envelope{ClientID: pub.ID, Kind: KindPublication, Sealed: sealed}
	n, err := bk.Publish(env)
	if err != nil {
		b.Fatal(err)
	}
	if n != nSubscribers {
		b.Fatalf("delivered %d, want %d", n, nSubscribers)
	}
	for _, c := range subscribers {
		bk.Drain(c.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bk.Publish(env); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			b.StopTimer()
			for _, c := range subscribers {
				bk.Drain(c.ID)
			}
			b.StartTimer()
		}
	}
}

// eventCovering builds an event that satisfies every predicate of s, so a
// broker holding only s always matches it.
func eventCovering(s Subscription) Event {
	e := Event{Attrs: map[string]float64{}, Payload: []byte("bench-payload")}
	for _, p := range s.Preds {
		v := 0.0
		switch {
		case math.IsInf(p.Interval.Lo, -1) && math.IsInf(p.Interval.Hi, 1):
		case math.IsInf(p.Interval.Lo, -1):
			v = p.Interval.Hi
		case math.IsInf(p.Interval.Hi, 1):
			v = p.Interval.Lo
		default:
			v = (p.Interval.Lo + p.Interval.Hi) / 2
		}
		e.Attrs[p.Attr] = v
	}
	return e
}

func BenchmarkSealPublication(b *testing.B) {
	w := NewWorkload(DefaultWorkload(4))
	e := w.NextEvent()
	c := testClient(b, "client", cryptbox.Key{1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SealEventBytes(e); err != nil {
			b.Fatal(err)
		}
	}
}
