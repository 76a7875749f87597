package scbr

import (
	"sync"
	"sync/atomic"
	"testing"

	"securecloud/internal/attest"
)

// TestBrokerConcurrentStress drives Publish, Subscribe, Unsubscribe,
// Rehandshake and Drain from many goroutines at once. Run under -race it
// checks the whole locking architecture: the control-state RWMutex, the
// per-shard reader/writer locks, lock-free snapshot probes (and their reads
// of the shard's attribute intern table), and the queues mutex. Publishes
// resolve matches on an owner page while its last ID is unsubscribed and
// the page freed, and seal to a recipient whose session is being replaced.
func TestBrokerConcurrentStress(t *testing.T) {
	_, enc := brokerEnclave(t)
	bk, err := NewBroker(enc, BrokerConfig{
		PayloadBytes: 256,
		CheckCost:    100,
		Shards:       3,
		MatchWorkers: 4,
		ShardBytes:   16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	const nClients = 6
	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := Connect(bk, "client-"+itoa(i), nil, nil, attest.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	// The last client owns every ID of the first owner page (IDs 1 to
	// ownerPageIDs-1), with filters every publish below matches.
	rotator := clients[nClients-1]
	var paged []uint64
	for id := uint64(0); id < ownerPageIDs-1; {
		s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 200)})
		var err error
		if id, err = rotator.Subscribe(bk, s); err != nil {
			t.Fatal(err)
		}
		paged = append(paged, id)
	}
	// A base population so publishes always have something to match.
	for i, c := range clients {
		s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, float64(50+i))})
		if _, err := c.Subscribe(bk, s); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg        sync.WaitGroup
		delivered atomic.Uint64
		failures  atomic.Uint64
	)
	fail := func(err error) {
		if err != nil {
			failures.Add(1)
			t.Error(err)
		}
	}

	// Publishers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := NewWorkload(DefaultWorkload(int64(g)))
			c := clients[g]
			for i := 0; i < 150; i++ {
				e := Event{Attrs: map[string]float64{"a": float64(i % 60)}, Payload: []byte("p")}
				if i%3 == 0 {
					e = w.NextEvent()
				}
				n, err := c.Publish(bk, e)
				fail(err)
				delivered.Add(uint64(n))
			}
		}(g)
	}
	// Subscriber churn: register and remove filters concurrently.
	for g := 3; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g]
			var mine []uint64
			for i := 0; i < 100; i++ {
				preds := map[string]Interval{"a": iv(float64(i%20), float64(40+i%20))}
				if i%2 == 0 {
					// A name of its own: the shard's intern table grows
					// and shrinks while publishes read it.
					preds["x"+itoa(g)+"_"+itoa(i)] = FullRange()
				}
				s, _ := NewSubscription(0, preds)
				id, err := c.Subscribe(bk, s)
				fail(err)
				mine = append(mine, id)
				if len(mine) > 10 {
					fail(bk.Unsubscribe(c.ID, mine[0]))
					mine = mine[1:]
				}
			}
		}(g)
	}
	// Free the first owner page one ID at a time under the publishes.
	wg.Add(1)
	go func(clientID string) {
		defer wg.Done()
		for _, id := range paged {
			fail(bk.Unsubscribe(clientID, id))
		}
	}(rotator.ID)
	// Rotate a recipient's session under the publishes.
	wg.Add(1)
	go func(c *Client) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var err error
			if c, err = rotateSession(bk, c); err != nil {
				fail(err)
				return
			}
		}
	}(rotator)
	// Drainer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			bk.Drain(clients[i%nClients].ID)
		}
	}()
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d operations failed under concurrency", failures.Load())
	}
	if delivered.Load() == 0 {
		t.Fatal("no deliveries under stress; matching broke")
	}
	bk.mu.RLock()
	first := bk.owners[0]
	bk.mu.RUnlock()
	if first != nil {
		t.Fatalf("first owner page still held with %d live IDs after all were unsubscribed", first.live)
	}
	// The store must still be coherent: every remaining filter matchable.
	e := Event{Attrs: map[string]float64{"a": 10}}
	if got, want := bk.Index().Match(e), bk.Index().MatchNaive(e); !idsEqual(got, want) {
		t.Fatalf("post-stress matcher disagreement:\n got %v\nwant %v", got, want)
	}
}
