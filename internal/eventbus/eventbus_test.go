package eventbus

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"securecloud/internal/cryptbox"
)

func appRoot() cryptbox.Key {
	var k cryptbox.Key
	k[0] = 0xA9
	return k
}

func topicPair(t *testing.T, bus *Bus, topic string) (*Publisher, *Subscriber) {
	t.Helper()
	key, err := TopicKey(appRoot(), topic)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPublisher(bus, topic, key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSubscriber(bus, topic, key)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestPublishReceive(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "meters/region-1")
	for i := 0; i < 3; i++ {
		if _, err := p.PublishBatch([][]byte{[]byte(fmt.Sprintf("reading-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "reading-0" || string(got[2]) != "reading-2" {
		t.Fatalf("received %q", got)
	}
	// Drained: next receive is empty.
	got, err = s.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("drained queue returned messages")
	}
}

func TestFanOut(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "alerts")
	p, _ := NewPublisher(bus, "alerts", key)
	var subs []*Subscriber
	for i := 0; i < 3; i++ {
		s, err := NewSubscriber(bus, "alerts", key)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if _, err := p.PublishBatch([][]byte{[]byte("overload feeder-9")}); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		got, err := s.Receive()
		if err != nil || len(got) != 1 {
			t.Fatalf("subscriber %d: got %d messages, err %v", i, len(got), err)
		}
	}
}

func TestCiphertextOnBus(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "secrets")
	if _, err := p.PublishBatch([][]byte{[]byte("CONSUMPTION-PROFILE")}); err != nil {
		t.Fatal(err)
	}
	bus.mu.Lock()
	for _, q := range bus.queues["secrets"] {
		for _, m := range q {
			if bytes.Contains(m.Sealed, []byte("CONSUMPTION-PROFILE")) {
				bus.mu.Unlock()
				t.Fatal("plaintext on the bus")
			}
		}
	}
	bus.mu.Unlock()
	if _, err := s.Receive(); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedMessageRejected(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "t")
	if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	bus.mu.Lock()
	for id, q := range bus.queues["t"] {
		q[0].Sealed[5] ^= 1
		bus.queues["t"][id] = q
	}
	bus.mu.Unlock()
	if _, err := s.Receive(); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("err = %v, want ErrBadSeal", err)
	}
}

func TestCrossTopicReplayRejected(t *testing.T) {
	bus := New()
	keyA, _ := TopicKey(appRoot(), "a")
	pA, _ := NewPublisher(bus, "a", keyA)
	// Subscriber on topic b using the key of topic b — but the bus
	// maliciously moves a's message into b's queue.
	keyB, _ := TopicKey(appRoot(), "b")
	sB, _ := NewSubscriber(bus, "b", keyB)
	if _, err := pA.PublishBatch([][]byte{[]byte("for-a")}); err != nil {
		t.Fatal(err)
	}
	bus.mu.Lock()
	var stolen Message
	// No subscriber on a: publish stored nothing. Re-publish directly.
	bus.mu.Unlock()
	sealed, _ := func() ([]byte, error) {
		box, _ := cryptbox.NewBox(keyA)
		return box.Seal([]byte("for-a"), []byte("topic|a"))
	}()
	stolen = Message{Topic: "b", Seq: 1, Sealed: sealed}
	bus.mu.Lock()
	for id := range bus.queues["b"] {
		bus.queues["b"][id] = append(bus.queues["b"][id], stolen)
	}
	bus.mu.Unlock()
	if _, err := sB.Receive(); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("cross-topic replay accepted: %v", err)
	}
}

func TestSequenceReplayRejected(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "t")
	if _, err := p.PublishBatch([][]byte{[]byte("one")}); err != nil {
		t.Fatal(err)
	}
	// The bus keeps its own copy of the sealed bytes: the drain hands the
	// queued buffer to the subscriber, which opens it in place.
	bus.mu.Lock()
	var copyMsg Message
	for _, q := range bus.queues["t"] {
		copyMsg = q[0]
		copyMsg.Sealed = append([]byte(nil), q[0].Sealed...)
	}
	bus.mu.Unlock()
	if _, err := s.Receive(); err != nil {
		t.Fatal(err)
	}
	// Bus replays the same message.
	bus.mu.Lock()
	for id := range bus.queues["t"] {
		bus.queues["t"][id] = append(bus.queues["t"][id], copyMsg)
	}
	bus.mu.Unlock()
	if _, err := s.Receive(); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("sequence replay accepted: %v", err)
	}
}

func TestTopicKeysIndependent(t *testing.T) {
	a, _ := TopicKey(appRoot(), "a")
	b, _ := TopicKey(appRoot(), "b")
	if a == b {
		t.Fatal("distinct topics derived the same key")
	}
}

func TestWrongKeyCannotRead(t *testing.T) {
	bus := New()
	keyA, _ := TopicKey(appRoot(), "a")
	p, _ := NewPublisher(bus, "a", keyA)
	wrong, _ := TopicKey(appRoot(), "other")
	s, err := NewSubscriber(bus, "a", wrong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receive(); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("wrong key read message: %v", err)
	}
}

func TestClosedBus(t *testing.T) {
	bus := New()
	p, _ := topicPair(t, bus, "t")
	bus.Close()
	if _, err := p.PublishBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish on closed bus: %v", err)
	}
	key, _ := TopicKey(appRoot(), "t")
	if _, err := NewSubscriber(bus, "t", key); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe on closed bus: %v", err)
	}
}

func TestBackPressure(t *testing.T) {
	bus := New()
	p, _ := topicPair(t, bus, "t")
	for i := 0; i < QueueLimit; i++ {
		if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if _, err := p.PublishBatch([][]byte{[]byte("overflow")}); !errors.Is(err, ErrBackPres) {
		t.Fatalf("err = %v, want ErrBackPres", err)
	}
}

func TestDepthMonitoring(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "t")
	for i := 0; i < 5; i++ {
		if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := bus.Depth("t"); got != 5 {
		t.Fatalf("Depth = %d, want 5", got)
	}
	if _, err := s.Receive(); err != nil {
		t.Fatal(err)
	}
	if got := bus.Depth("t"); got != 0 {
		t.Fatalf("Depth after drain = %d", got)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "t")
	s, _ := NewSubscriber(bus, "t", key)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := NewPublisher(bus, "t", key)
			for i := 0; i < 100; i++ {
				if _, err := p.PublishBatch([][]byte{[]byte("m")}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("received %d of 400", len(got))
	}
}

// sealedOnBus returns the sealed bytes queued for each subscriber handle of
// topic, in sequence order.
func sealedOnBus(bus *Bus, topic string) map[int][][]byte {
	bus.mu.Lock()
	defer bus.mu.Unlock()
	out := map[int][][]byte{}
	for id, q := range bus.queues[topic] {
		for _, m := range q {
			out[id] = append(out[id], m.Sealed)
		}
	}
	return out
}

func TestPublishBatchFanOut(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "batch")
	pub, err := NewPublisher(bus, "batch", key)
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}

	// A sole subscriber owns the drained buffers: its bodies are opened
	// in place, so each aliases its message's sealed bytes.
	sole, err := NewSubscriber(bus, "batch", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.PublishBatch(bodies); err != nil {
		t.Fatal(err)
	}
	queued := sealedOnBus(bus, "batch")[sole.handle]
	got, err := sole.Receive()
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range got {
		if string(body) != string(bodies[i]) {
			t.Fatalf("sole subscriber received %q", got)
		}
		if &body[0] != &queued[i][cryptbox.NonceSize] {
			t.Fatalf("sole subscriber's body %d was copied, not opened in place", i)
		}
	}

	// Fan-out: three queues share each message's buffer, so every
	// subscriber must still read intact bodies after the others opened
	// theirs.
	subs := []*Subscriber{sole}
	for i := 0; i < 2; i++ {
		s, err := NewSubscriber(bus, "batch", key)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	seqs, err := pub.PublishBatch(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 || seqs[0] != 5 || seqs[3] != 8 {
		t.Fatalf("seqs = %v", seqs)
	}
	queued = sealedOnBus(bus, "batch")[sole.handle]
	for _, s := range subs {
		got, err := s.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || string(got[0]) != "a" || string(got[3]) != "d" {
			t.Fatalf("received %q", got)
		}
		if &got[0][0] == &queued[0][cryptbox.NonceSize] {
			t.Fatal("a fan-out body aliases the shared message buffer")
		}
	}
	if _, err := pub.PublishBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestPublishBatchBackPressureAllOrNothing(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "bp")
	pub, _ := NewPublisher(bus, "bp", key)
	sub, _ := NewSubscriber(bus, "bp", key)
	for i := 0; i < QueueLimit-1; i++ {
		if _, err := pub.PublishBatch([][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pub.PublishBatch([][]byte{[]byte("y"), []byte("z")}); !errors.Is(err, ErrBackPres) {
		t.Fatalf("err = %v, want ErrBackPres", err)
	}
	// Nothing from the rejected batch leaked into the queue.
	got, err := sub.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != QueueLimit-1 {
		t.Fatalf("queued %d, want %d", len(got), QueueLimit-1)
	}
}

func TestPollBatchBounded(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "poll")
	pub, _ := NewPublisher(bus, "poll", key)
	sub, _ := NewSubscriber(bus, "poll", key)
	for i := 0; i < 10; i++ {
		if _, err := pub.PublishBatch([][]byte{{byte('0' + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := sub.PollBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || string(first[0]) != "0" || string(first[2]) != "2" {
		t.Fatalf("first poll = %q", first)
	}
	rest, err := sub.PollBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 7 || string(rest[0]) != "3" {
		t.Fatalf("second poll = %q", rest)
	}
	// Replay protection still active across polls.
	if more, err := sub.PollBatch(5); err != nil || len(more) != 0 {
		t.Fatalf("drained topic returned %q, %v", more, err)
	}
}

// TestUnsubscribePrunesQueues pins the churn leak fix: when a topic's last
// subscriber closes, its queue map disappears from the bus, even with
// undelivered messages still queued.
func TestUnsubscribePrunesQueues(t *testing.T) {
	bus := New()
	key, _ := TopicKey(appRoot(), "churn")
	pub, _ := NewPublisher(bus, "churn", key)
	for round := 0; round < 50; round++ {
		sub, err := NewSubscriber(bus, "churn", key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.PublishBatch([][]byte{[]byte("m")}); err != nil {
			t.Fatal(err)
		}
		sub.Close()
		sub.Close() // idempotent
	}
	bus.mu.Lock()
	nq := len(bus.queues)
	bus.mu.Unlock()
	if nq != 0 {
		t.Fatalf("after churn: %d queue topics retained, want 0", nq)
	}
	if bus.Depth("churn") != 0 {
		t.Fatalf("depth = %d after last unsubscribe", bus.Depth("churn"))
	}
	// Sequence numbers survive churn: a fresh subscriber still sees
	// monotonically increasing sequences.
	sub, _ := NewSubscriber(bus, "churn", key)
	seqs, err := pub.PublishBatch([][]byte{[]byte("after")})
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] != 51 {
		t.Fatalf("seq = %d, want 51 (continuity across churn)", seqs[0])
	}
	if got, err := sub.Receive(); err != nil || len(got) != 1 {
		t.Fatalf("fresh subscriber: %q %v", got, err)
	}
}

// TestSubscriberDepth: the per-subscriber monitoring hook reports the
// pending-queue length without consuming anything, tracks partial drains,
// and goes to zero when the subscriber closes.
func TestSubscriberDepth(t *testing.T) {
	bus := New()
	p, s := topicPair(t, bus, "t")
	if got := s.Depth(); got != 0 {
		t.Fatalf("fresh Depth = %d", got)
	}
	for i := 0; i < 7; i++ {
		if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Depth(); got != 7 {
		t.Fatalf("Depth = %d, want 7", got)
	}
	// Depth is pure observation: asking twice changes nothing.
	if got := s.Depth(); got != 7 {
		t.Fatalf("second Depth = %d, want 7", got)
	}
	if _, err := s.PollBatch(3); err != nil {
		t.Fatal(err)
	}
	if got := s.Depth(); got != 4 {
		t.Fatalf("Depth after PollBatch(3) = %d, want 4", got)
	}
	s.Close()
	if got := s.Depth(); got != 0 {
		t.Fatalf("Depth after Close = %d, want 0", got)
	}
}

// TestSubscriberDepthIndependentPerSubscriber: each subscriber's depth is
// its own backlog, not the topic aggregate.
func TestSubscriberDepthIndependentPerSubscriber(t *testing.T) {
	bus := New()
	p, fast := topicPair(t, bus, "t")
	key, _ := TopicKey(appRoot(), "t")
	slow, err := NewSubscriber(bus, "t", key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.PublishBatch([][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fast.Receive(); err != nil {
		t.Fatal(err)
	}
	if f, sl := fast.Depth(), slow.Depth(); f != 0 || sl != 4 {
		t.Fatalf("fast/slow Depth = %d/%d, want 0/4", f, sl)
	}
	if got := bus.Depth("t"); got != 4 {
		t.Fatalf("topic Depth = %d, want 4", got)
	}
}

// TestQueueLimitExactlyFull pins the bound's boundary semantics: a queue
// may hold exactly the limit; the publish that would exceed it — even by
// one message of a batch — is rejected whole, with nothing enqueued.
func TestQueueLimitExactlyFull(t *testing.T) {
	bus := New()
	bus.SetQueueLimit("t", 8)
	p, s := topicPair(t, bus, "t")

	// Fill to exactly the limit in one batch: allowed.
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	if _, err := p.PublishBatch(batch); err != nil {
		t.Fatalf("publish at exactly-full: %v", err)
	}
	if got := s.Depth(); got != 8 {
		t.Fatalf("Depth = %d, want 8", got)
	}
	// One more is back-pressure, and the queue is untouched.
	if _, err := p.PublishBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrBackPres) {
		t.Fatalf("publish beyond limit: err = %v, want ErrBackPres", err)
	}
	if got := s.Depth(); got != 8 {
		t.Fatalf("Depth after rejected publish = %d, want 8", got)
	}
	// A batch straddling the boundary (7 queued + 2 new) is all-or-nothing.
	if _, err := s.PollBatch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{{0xA}, {0xB}}); !errors.Is(err, ErrBackPres) {
		t.Fatalf("straddling batch: err = %v, want ErrBackPres", err)
	}
	if got := s.Depth(); got != 7 {
		t.Fatalf("Depth after rejected batch = %d, want 7", got)
	}
	// Exactly filling the remaining slot succeeds.
	if _, err := p.PublishBatch([][]byte{[]byte("y")}); err != nil {
		t.Fatalf("publish into last slot: %v", err)
	}
}

// TestQueueLimitPersistsAcrossSubscriberChurn: SetQueueLimit is topology
// configuration — the last unsubscriber prunes the topic's queue maps, but
// a re-created subscription is bounded identically. Restoring the default
// with limit <= 0 also works.
func TestQueueLimitPersistsAcrossSubscriberChurn(t *testing.T) {
	bus := New()
	bus.SetQueueLimit("t", 2)
	p, s := topicPair(t, bus, "t")
	if _, err := p.PublishBatch([][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Last unsubscriber pruned the queue map entirely.
	bus.mu.Lock()
	_, queueAlive := bus.queues["t"]
	bus.mu.Unlock()
	if queueAlive {
		t.Fatal("topic queue map survived last unsubscribe")
	}
	key, _ := TopicKey(appRoot(), "t")
	s2, err := NewSubscriber(bus, "t", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{{5}}); !errorsIsBackPres(err) {
		t.Fatalf("limit lost across churn: err = %v", err)
	}
	bus.SetQueueLimit("t", 0) // restore default
	if _, err := p.PublishBatch([][]byte{{5}}); err != nil {
		t.Fatalf("default limit not restored: %v", err)
	}
	s2.Close()
}

func errorsIsBackPres(err error) bool { return errors.Is(err, ErrBackPres) }

// TestUnsubscribePrunesQueueAndLimitIndependence: unsubscribing one of two
// subscribers prunes only that handle's queue (the per-tenant queue of the
// departing consumer), leaving the peer's backlog and the topic limit
// intact.
func TestUnsubscribePrunesOnlyOwnQueue(t *testing.T) {
	bus := New()
	p, a := topicPair(t, bus, "t")
	key, _ := TopicKey(appRoot(), "t")
	b, err := NewSubscriber(bus, "t", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got := b.Depth(); got != 3 {
		t.Fatalf("peer Depth after unsubscribe = %d, want 3", got)
	}
	bus.mu.Lock()
	n := len(bus.queues["t"])
	bus.mu.Unlock()
	if n != 1 {
		t.Fatalf("queue handles after unsubscribe = %d, want 1", n)
	}
	// The departed handle's queue no longer counts toward back-pressure.
	bus.SetQueueLimit("t", 3)
	if _, err := p.PublishBatch([][]byte{{4}}); !errors.Is(err, ErrBackPres) {
		t.Fatalf("peer still bounded: err = %v, want ErrBackPres", err)
	}
	if _, err := b.PollBatch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishBatch([][]byte{{4}}); err != nil {
		t.Fatalf("publish after drain: %v", err)
	}
	b.Close()
}
