// Package eventbus implements the event bus of Figure 1: the encrypted
// topic-based transport that connects the micro-services of a SecureCloud
// application. The bus itself is untrusted infrastructure — it stores and
// forwards opaque sealed messages; only micro-services holding a topic key
// (distributed through the CAS, not through the bus) can read them.
//
// For content-based (rather than topic-based) routing, applications use
// the SCBR broker instead; the bus is the simpler substrate that carries
// point-to-point and fan-out traffic between micro-services.
package eventbus

import (
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// Message is one sealed bus message. Topic and sequence number are visible
// to the untrusted bus (it needs them to route and order); the body is not.
type Message struct {
	Topic  string
	Seq    uint64
	Sealed []byte
}

// Errors returned by the bus and endpoints.
var (
	ErrBadSeal  = errors.New("eventbus: message failed authentication")
	ErrClosed   = errors.New("eventbus: bus closed")
	ErrBackPres = errors.New("eventbus: subscriber queue full")
)

// QueueLimit bounds each subscriber queue; the bus applies back-pressure
// beyond it rather than growing unboundedly. Individual topics can tighten
// or relax the bound with SetQueueLimit.
const QueueLimit = 4096

// Bus is the untrusted message store-and-forward fabric.
type Bus struct {
	mu     sync.Mutex
	seqs   map[string]uint64
	queues map[string]map[int][]Message // topic -> subscriber handle -> queue
	leased map[string]map[int]map[uint64]bool
	limits map[string]int // topic -> queue limit override (0/absent = QueueLimit)
	nextID int
	closed bool
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{
		seqs:   make(map[string]uint64),
		queues: make(map[string]map[int][]Message),
	}
}

// SetQueueLimit overrides the per-subscriber queue bound of one topic
// (limit <= 0 restores the default QueueLimit). The limit is topology
// configuration: it persists across subscriber churn, including the
// last-unsubscriber prune of the topic's queues. A queue may hold exactly
// `limit` messages; the publish that would exceed it is rejected whole
// (all-or-nothing, like the default bound).
func (b *Bus) SetQueueLimit(topic string, limit int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if limit <= 0 {
		delete(b.limits, topic)
		return
	}
	if b.limits == nil {
		b.limits = make(map[string]int)
	}
	b.limits[topic] = limit
}

// queueLimit returns the effective per-subscriber bound of one topic.
// Caller holds b.mu.
func (b *Bus) queueLimit(topic string) int {
	if lim, ok := b.limits[topic]; ok {
		return lim
	}
	return QueueLimit
}

// Close shuts the bus down; further operations fail.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

// subscribe registers a queue on a topic and returns its handle.
func (b *Bus) subscribe(topic string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	if b.queues[topic] == nil {
		b.queues[topic] = make(map[int][]Message)
	}
	b.nextID++
	b.queues[topic][b.nextID] = nil
	return b.nextID, nil
}

// publish appends a sealed message to all subscriber queues of the topic.
func (b *Bus) publish(topic string, sealed []byte) (uint64, error) {
	seqs, err := b.publishBatch(topic, [][]byte{sealed})
	if err != nil {
		return 0, err
	}
	return seqs[0], nil
}

// publishBatch appends a batch of sealed messages to all subscriber queues
// of the topic under a single lock acquisition — the fan-out fast path.
// All-or-nothing: back-pressure on any subscriber rejects the whole batch
// before anything is enqueued.
func (b *Bus) publishBatch(topic string, sealed [][]byte) ([]uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	lim := b.queueLimit(topic)
	qs := b.queues[topic]
	for id, q := range qs {
		if len(q)+len(sealed) > lim {
			return nil, fmt.Errorf("%w: topic %s subscriber %d", ErrBackPres, topic, id)
		}
	}
	// Build the message batch once, then append it whole per subscriber:
	// the per-message topic-map lookups (seq bump + queue fetch × fan-out)
	// collapse to one lookup per batch.
	seq := b.seqs[topic]
	seqs := make([]uint64, len(sealed))
	msgs := make([]Message, len(sealed))
	for i, s := range sealed {
		seq++
		seqs[i] = seq
		msgs[i] = Message{Topic: topic, Seq: seq, Sealed: s}
	}
	b.seqs[topic] = seq
	for id, q := range qs {
		qs[id] = append(q, msgs...)
	}
	return seqs, nil
}

// drainN pops up to max queued messages (0 = all) of a subscription handle
// under one lock acquisition. It pops messages regardless of outstanding
// leases — mixing Lease with Receive/PollBatch on one handle is
// unsupported.
func (b *Bus) drainN(topic string, id int, max int) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[topic][id]
	if max <= 0 || max >= len(q) {
		if q != nil {
			b.queues[topic][id] = nil
		}
		return q
	}
	out := append([]Message(nil), q[:max]...)
	b.queues[topic][id] = append(q[:0:0], q[max:]...)
	return out
}

// unsubscribe removes a subscription handle, pruning its queue and leases.
// When the topic's last subscriber leaves, the topic's queue and lease maps
// are dropped entirely (sequence numbers persist so a re-created topic
// never regresses and replay protection holds across churn).
func (b *Bus) unsubscribe(topic string, id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if qs := b.queues[topic]; qs != nil {
		delete(qs, id)
		if len(qs) == 0 {
			delete(b.queues, topic)
		}
	}
	b.pruneLease(topic, id)
}

// pruneLease drops the lease map of one subscriber handle and any empty
// enclosing maps. Caller holds b.mu.
func (b *Bus) pruneLease(topic string, id int) {
	l := b.leased[topic]
	if l == nil {
		return
	}
	delete(l, id)
	if len(l) == 0 {
		delete(b.leased, topic)
	}
}

// peek returns up to max queued messages, marking them leased (still
// queued until acked). Lease maps are created only when a message is
// actually leased, so peeking an empty queue leaves no bookkeeping behind
// (e.g. from a stale handle after Close).
func (b *Bus) peek(topic string, id int, max int) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	mine := b.leased[topic][id]
	var out []Message
	for _, m := range b.queues[topic][id] {
		if max > 0 && len(out) >= max {
			break
		}
		if mine[m.Seq] {
			continue
		}
		if mine == nil {
			if b.leased == nil {
				b.leased = make(map[string]map[int]map[uint64]bool)
			}
			if b.leased[topic] == nil {
				b.leased[topic] = make(map[int]map[uint64]bool)
			}
			mine = make(map[uint64]bool)
			b.leased[topic][id] = mine
		}
		mine[m.Seq] = true
		out = append(out, m)
	}
	return out
}

// ack drops a leased message permanently, pruning emptied lease maps so a
// subscriber that consumed everything holds no residual bookkeeping.
func (b *Bus) ack(topic string, id int, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[topic][id]
	for i, m := range q {
		if m.Seq == seq {
			b.queues[topic][id] = append(q[:i:i], q[i+1:]...)
			if l := b.leased[topic]; l != nil && l[id] != nil {
				delete(l[id], seq)
				if len(l[id]) == 0 {
					b.pruneLease(topic, id)
				}
			}
			return true
		}
	}
	return false
}

// nack releases a lease so the message is delivered again.
func (b *Bus) nack(topic string, id int, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.leased[topic]
	if l == nil || l[id] == nil || !l[id][seq] {
		return false
	}
	delete(l[id], seq)
	if len(l[id]) == 0 {
		b.pruneLease(topic, id)
	}
	return true
}

// depth returns the queued message count of one subscription handle.
func (b *Bus) depth(topic string, id int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queues[topic][id])
}

// Depth returns the queued message count of a topic across subscribers
// (monitoring hook for the orchestration layer).
func (b *Bus) Depth(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, q := range b.queues[topic] {
		n += len(q)
	}
	return n
}

// TopicKey derives the key protecting one topic from an application root
// key. Keys are provisioned to micro-services via their SCFs; the bus
// never sees them.
func TopicKey(appRoot cryptbox.Key, topic string) (cryptbox.Key, error) {
	return cryptbox.DeriveKey(appRoot, "topic:"+topic)
}

// stageBytes is the size of the simulated staging window through which an
// accounted endpoint copies sealed messages to or from the untrusted bus.
const stageBytes = 64 << 10

// Accounting wires a bus endpoint to the simulated SGX memory hierarchy:
// the enclave-side copy of every sealed message (out on publish, in on
// receive) is charged through the endpoint's Memory view. A zero Accounting
// leaves the endpoint unaccounted.
type Accounting = enclave.Accounting

// acctStage is the per-endpoint staging window in simulated memory.
type acctStage struct {
	mem  *enclave.Memory
	addr uint64
}

func newAcctStage(acct Accounting) *acctStage {
	if !acct.Enabled() {
		return nil
	}
	return &acctStage{mem: acct.Mem, addr: acct.Arena.Alloc(stageBytes)}
}

// chargeCopy charges a copy of total bytes through the staging window as a
// handful of bulk accesses (one commit per window-full) instead of one
// access per message.
func (st *acctStage) chargeCopy(total int, write bool) {
	if st == nil || total <= 0 {
		return
	}
	for total > 0 {
		n := total
		if n > stageBytes {
			n = stageBytes
		}
		st.mem.AccessRange(st.addr, n, write)
		total -= n
	}
}

// Publisher seals messages onto one topic.
type Publisher struct {
	bus   *Bus
	topic string
	box   *cryptbox.Box
	aad   []byte // "topic|<topic>", precomputed once
	stage *acctStage
}

// EndpointConfig configures one bus endpoint — publisher or subscriber.
// The zero Accounting leaves the endpoint unaccounted.
type EndpointConfig struct {
	Bus   *Bus
	Topic string
	// Key is the topic's stream key (obtained via attested key release).
	Key cryptbox.Key
	// Accounting optionally wires the endpoint's enclave-side copies to a
	// simulated memory view.
	Accounting Accounting
}

// OpenPublisher builds a publisher from cfg. The AEAD context is built
// once per endpoint and dies with it — endpoints are the unit callers
// already manage, so per-topic churn cannot grow any process-wide state.
func OpenPublisher(cfg EndpointConfig) (*Publisher, error) {
	box, err := cryptbox.NewBox(cfg.Key)
	if err != nil {
		return nil, err
	}
	return &Publisher{
		bus: cfg.Bus, topic: cfg.Topic, box: box,
		aad:   []byte("topic|" + cfg.Topic),
		stage: newAcctStage(cfg.Accounting),
	}, nil
}

// NewPublisher builds an unaccounted publisher for topic with its topic key.
func NewPublisher(bus *Bus, topic string, key cryptbox.Key) (*Publisher, error) {
	return OpenPublisher(EndpointConfig{Bus: bus, Topic: topic, Key: key})
}

// Publish seals body and hands it to the bus, returning its sequence
// number. The seal binds the topic, so messages cannot be replayed across
// topics by the bus.
func (p *Publisher) Publish(body []byte) (uint64, error) {
	sealed, err := p.box.Seal(body, p.aad)
	if err != nil {
		return 0, err
	}
	p.stage.chargeCopy(len(sealed), true)
	return p.bus.publish(p.topic, sealed)
}

// PublishBatch seals a batch of bodies and enqueues them onto all
// subscriber queues under one bus lock acquisition — each message is
// sealed exactly once however many subscribers fan out, and the mutex is
// not re-acquired per message. All-or-nothing under back-pressure. Returns
// the assigned sequence numbers.
func (p *Publisher) PublishBatch(bodies [][]byte) ([]uint64, error) {
	if len(bodies) == 0 {
		return nil, nil
	}
	// Seal the whole batch into one contiguous buffer: the AEAD overhead is
	// fixed per message, so the exact capacity is known up front and
	// SealAppend never reallocates — two allocations per batch instead of
	// one per message. Sub-slices are capacity-capped so they stay
	// independent views of the shared backing array.
	overhead := p.box.Overhead()
	capTotal := 0
	for _, body := range bodies {
		capTotal += len(body) + overhead
	}
	buf := make([]byte, 0, capTotal)
	sealed := make([][]byte, len(bodies))
	for i, body := range bodies {
		start := len(buf)
		var err error
		buf, err = p.box.SealAppend(buf, body, p.aad)
		if err != nil {
			return nil, err
		}
		sealed[i] = buf[start:len(buf):len(buf)]
	}
	p.stage.chargeCopy(len(buf), true)
	return p.bus.publishBatch(p.topic, sealed)
}

// Subscriber receives and opens messages from one topic.
type Subscriber struct {
	bus     *Bus
	topic   string
	box     *cryptbox.Box
	aad     []byte // "topic|<topic>", precomputed once
	handle  int
	lastSeq uint64
	stage   *acctStage
}

// OpenSubscriber registers a subscription from cfg. The whole drained
// batch is charged as bulk accesses through one staging window, not per
// message; the AEAD context is per-endpoint, as in OpenPublisher.
func OpenSubscriber(cfg EndpointConfig) (*Subscriber, error) {
	box, err := cryptbox.NewBox(cfg.Key)
	if err != nil {
		return nil, err
	}
	h, err := cfg.Bus.subscribe(cfg.Topic)
	if err != nil {
		return nil, err
	}
	return &Subscriber{
		bus: cfg.Bus, topic: cfg.Topic, box: box,
		aad:    []byte("topic|" + cfg.Topic),
		handle: h, stage: newAcctStage(cfg.Accounting),
	}, nil
}

// NewSubscriber registers an unaccounted subscription on topic with its
// topic key.
func NewSubscriber(bus *Bus, topic string, key cryptbox.Key) (*Subscriber, error) {
	return OpenSubscriber(EndpointConfig{Bus: bus, Topic: topic, Key: key})
}

// Depth reports this subscriber's pending-queue length in one bus-lock
// acquisition, without draining, peeking or leasing anything — the
// monitoring hook the orchestrator samples between serve batches. Leased
// messages still count: they remain queued until acked.
func (s *Subscriber) Depth() int {
	return s.bus.depth(s.topic, s.handle)
}

// Close unregisters the subscription, releasing its queue and any lease
// bookkeeping on the bus. When the topic's last subscriber closes, the
// topic's queue and lease maps are pruned entirely — previously they
// accumulated forever under subscriber churn. Safe to call more than once.
func (s *Subscriber) Close() {
	s.bus.unsubscribe(s.topic, s.handle)
}

// Receive drains, authenticates and decrypts pending messages. It fails on
// any tampered message and on sequence regression (a bus replaying or
// reordering traffic).
func (s *Subscriber) Receive() ([][]byte, error) {
	return s.PollBatch(0)
}

// PollBatch is Receive bounded to max messages (0 = all): it consumes up
// to max queued messages under a single bus lock acquisition — the shape a
// micro-service's poll loop wants when it processes fixed-size batches
// without holding everything the bus buffered in memory at once. As with
// Receive, an authentication or replay failure is fatal for the stream:
// the remaining drained messages are discarded, because a bus caught
// tampering or reordering cannot be trusted to deliver the rest. Consumers
// that must survive poison messages use Lease/Ack instead.
func (s *Subscriber) PollBatch(max int) ([][]byte, error) {
	msgs := s.bus.drainN(s.topic, s.handle, max)
	if s.stage != nil {
		total := 0
		for _, m := range msgs {
			total += len(m.Sealed)
		}
		s.stage.chargeCopy(total, false)
	}
	out := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		if m.Seq <= s.lastSeq {
			return nil, fmt.Errorf("%w: sequence %d replayed", ErrBadSeal, m.Seq)
		}
		body, err := s.box.Open(m.Sealed, s.aad)
		if err != nil {
			return nil, fmt.Errorf("%w: topic %s seq %d", ErrBadSeal, m.Topic, m.Seq)
		}
		s.lastSeq = m.Seq
		out = append(out, body)
	}
	return out, nil
}

// Pending is one unacknowledged message leased to a consumer.
type Pending struct {
	Seq  uint64
	Body []byte
}

// Lease authenticates, decrypts and returns up to max pending messages
// without consuming them: each must be Acked once processed, or Nacked to
// requeue — the at-least-once consumption mode micro-services use when a
// crash between receive and process must not lose grid telemetry.
func (s *Subscriber) Lease(max int) ([]Pending, error) {
	msgs := s.bus.peek(s.topic, s.handle, max)
	if s.stage != nil {
		total := 0
		for _, m := range msgs {
			total += len(m.Sealed)
		}
		s.stage.chargeCopy(total, false)
	}
	out := make([]Pending, 0, len(msgs))
	for _, m := range msgs {
		body, err := s.box.Open(m.Sealed, s.aad)
		if err != nil {
			return nil, fmt.Errorf("%w: topic %s seq %d", ErrBadSeal, m.Topic, m.Seq)
		}
		out = append(out, Pending{Seq: m.Seq, Body: body})
	}
	return out, nil
}

// Ack removes a leased message permanently.
func (s *Subscriber) Ack(seq uint64) bool {
	return s.bus.ack(s.topic, s.handle, seq)
}

// Nack returns a leased message to the queue for redelivery.
func (s *Subscriber) Nack(seq uint64) bool {
	return s.bus.nack(s.topic, s.handle, seq)
}
