package wire

import (
	"fmt"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
)

// DefaultMailboxCap bounds each tenant's reply mailbox in frames. Tenant
// IDs on ingress frames are cleartext and unverified (the gateway cannot
// open seals), so an attacker can manufacture reply traffic for tenants
// nobody polls; the cap turns that from unbounded memory growth into a
// bounded window with drop-oldest accounting (the mail_dropped counter).
const DefaultMailboxCap = 1024

// PlaneGateway bridges HTTP clients to one ReplicaSet's request/reply
// topics. It owns a publisher on the request topic and a subscriber on the
// reply topic, and routes reply frames into per-tenant mailboxes by their
// cleartext tenant header — it never opens a sealed body. Ingress frames
// are structurally validated (and shed-flag frames rejected) before they
// touch the bus, so a hostile HTTP client cannot inject what an in-process
// client could not.
//
// Mailboxes are keyed by tenant, so at most one polling client per tenant
// may be live at a time (see PlaneTransport); each mailbox holds at most
// MailboxCap frames, oldest dropped first.
type PlaneGateway struct {
	name string
	pub  *eventbus.Publisher
	sub  *eventbus.Subscriber

	mu          sync.Mutex
	mail        map[string][][]byte
	mailCap     int
	framesIn    uint64
	bytesIn     uint64
	rejected    uint64
	framesOut   uint64
	bytesOut    uint64
	polls       uint64
	mailDropped uint64
}

// NewPlaneGateway opens the gateway endpoints for the named service from
// its released key set.
func NewPlaneGateway(bus *eventbus.Bus, name string, keys attest.ServiceKeys, inTopic, outTopic string) (*PlaneGateway, error) {
	inKey, ok := keys.Topic(inTopic)
	if !ok {
		return nil, fmt.Errorf("wire: gateway has no stream key for %s", inTopic)
	}
	outKey, ok := keys.Topic(outTopic)
	if !ok {
		return nil, fmt.Errorf("wire: gateway has no stream key for %s", outTopic)
	}
	pub, err := eventbus.NewPublisher(bus, inTopic, inKey)
	if err != nil {
		return nil, err
	}
	sub, err := eventbus.NewSubscriber(bus, outTopic, outKey)
	if err != nil {
		return nil, err
	}
	return &PlaneGateway{name: name, pub: pub, sub: sub, mail: make(map[string][][]byte), mailCap: DefaultMailboxCap}, nil
}

// SetMailboxCap overrides the per-tenant mailbox bound (frames); n < 1
// restores DefaultMailboxCap. Call before serving traffic.
func (g *PlaneGateway) SetMailboxCap(n int) {
	if n < 1 {
		n = DefaultMailboxCap
	}
	g.mu.Lock()
	g.mailCap = n
	g.mu.Unlock()
}

// SendFrames validates and publishes a batch of sealed request frames. The
// batch is all-or-nothing: one malformed or shed-flagged frame rejects the
// whole request, so partial batches never reach the plane.
func (g *PlaneGateway) SendFrames(frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := microsvc.CheckFrame(f); err != nil {
			g.mu.Lock()
			g.rejected++
			g.mu.Unlock()
			return 0, fmt.Errorf("wire: frame %d: %w", i, err)
		}
	}
	if len(frames) == 0 {
		return 0, nil
	}
	if _, err := g.pub.PublishBatch(frames); err != nil {
		return 0, err
	}
	g.mu.Lock()
	g.framesIn += uint64(len(frames))
	for _, f := range frames {
		g.bytesIn += uint64(len(f))
	}
	g.mu.Unlock()
	return len(frames), nil
}

// PollTenant drains the reply frames routed to one tenant (the empty
// tenant collects untagged traffic). Freshly arrived bus frames
// are sorted into mailboxes first, so interleaved tenants never see each
// other's replies.
func (g *PlaneGateway) PollTenant(tenant string) ([][]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Receive is serialized under the gateway lock: the subscriber tracks
	// its replay horizon unlocked, counting on a single-consumer caller.
	batch, err := g.sub.Receive()
	if err != nil {
		return nil, err
	}
	for _, f := range batch {
		t, _, err := microsvc.PeekFrameTenant(f)
		if err != nil {
			// An unparseable reply frame cannot be routed; count and drop.
			g.rejected++
			continue
		}
		q := g.mail[t]
		if len(q) >= g.mailCap {
			// Full mailbox: drop oldest, compacting in place so a
			// never-polled tenant's backing array stays bounded too.
			drop := len(q) - g.mailCap + 1
			g.mailDropped += uint64(drop)
			q = append(q[:0], q[drop:]...)
		}
		g.mail[t] = append(q, f)
	}
	out := g.mail[tenant]
	delete(g.mail, tenant)
	g.polls++
	g.framesOut += uint64(len(out))
	for _, f := range out {
		g.bytesOut += uint64(len(f))
	}
	return out, nil
}

// Close tears down the gateway's bus endpoints.
func (g *PlaneGateway) Close() { g.sub.Close() }

// StatsName implements stats.Source.
func (g *PlaneGateway) StatsName() string { return "wire_" + g.name }

// Snapshot implements stats.Source.
func (g *PlaneGateway) Snapshot() map[string]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	pending := 0
	for _, q := range g.mail {
		pending += len(q)
	}
	return map[string]float64{
		"frames_in":     float64(g.framesIn),
		"bytes_in":      float64(g.bytesIn),
		"frames_out":    float64(g.framesOut),
		"bytes_out":     float64(g.bytesOut),
		"rejected":      float64(g.rejected),
		"polls":         float64(g.polls),
		"mailbox_depth": float64(pending),
		"mail_dropped":  float64(g.mailDropped),
	}
}
