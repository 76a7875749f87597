package microsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
)

// PlaneRequest is one client request: a cleartext routing key and the
// plaintext body (sealed by the client before it touches the bus).
type PlaneRequest struct {
	Key  string
	Body []byte
}

// PlaneReply is one opened reply. Tenant and ID echo the request envelope.
// Shed marks an admission rejection: Body is nil and RetryAfterSimMS
// carries the server's deterministic hint.
type PlaneReply struct {
	Key             string
	Body            []byte
	Tenant          string
	ID              uint64
	Shed            bool
	RetryAfterSimMS float64
}

// RetryPolicy shapes a client's deterministic retry behaviour: a shed
// request is re-sent after the server's retry-after hint scaled by
// exponential backoff (hint × 2^(attempt−1), all in sim-ms), up to
// MaxAttempts total sends.
type RetryPolicy struct {
	// MaxAttempts bounds total send attempts per request, the first
	// included (default 4).
	MaxAttempts int
}

// inflightReq is one sent request the client can still re-send.
type inflightReq struct {
	meta    frameMeta
	key     string
	body    []byte
	attempt int
	dueMS   float64
}

// Transport moves sealed plane frames between a client and a service's
// topics. The default is the in-process bus transport; the wire package
// provides an HTTP transport with identical semantics. SendFrames must
// deliver a batch atomically in order; RecvFrames drains every frame
// currently pending for this client.
type Transport interface {
	SendFrames(frames [][]byte) error
	RecvFrames() ([][]byte, error)
	Close()
}

// busTransport is the in-process Transport: a bus publisher/subscriber
// pair on the service's in/out topics.
type busTransport struct {
	pub *eventbus.Publisher
	sub *eventbus.Subscriber
}

func (t *busTransport) SendFrames(frames [][]byte) error {
	_, err := t.pub.PublishBatch(frames)
	return err
}

func (t *busTransport) RecvFrames() ([][]byte, error) { return t.sub.Receive() }

func (t *busTransport) Close() { t.sub.Close() }

// PlaneClient is the owner-side endpoint of a replica set: it holds the
// service request key (the owner registered the keys with the KeyBroker in
// the first place), seals request bodies before they touch the transport
// and opens replies coming back — so the transport, in-process bus or HTTP
// wire alike, only ever carries sealed frames.
type PlaneClient struct {
	name string
	box  *cryptbox.Box
	tr   Transport

	// Frame AADs, precomputed once per client instead of per request.
	reqAAD  []byte
	respAAD []byte
	shedAAD []byte

	// Retry state (nil retry = fire-and-forget). All of it is driven by
	// the caller's sim-ms clock, never a host clock: Poll schedules,
	// DueRetries re-sends.
	retry            *RetryPolicy
	nextID           uint64
	inflight         map[uint64]*inflightReq
	retryQ           []*inflightReq
	retriesSent      uint64
	retriesAbandoned uint64
}

// NewPlaneClient builds a client for the named service from its key set,
// wired to the in-process bus transport.
func NewPlaneClient(bus *eventbus.Bus, name string, keys attest.ServiceKeys, inTopic, outTopic string) (*PlaneClient, error) {
	inKey, ok := keys.Topic(inTopic)
	if !ok {
		return nil, fmt.Errorf("microsvc: client has no stream key for %s", inTopic)
	}
	outKey, ok := keys.Topic(outTopic)
	if !ok {
		return nil, fmt.Errorf("microsvc: client has no stream key for %s", outTopic)
	}
	pub, err := eventbus.NewPublisher(bus, inTopic, inKey)
	if err != nil {
		return nil, err
	}
	sub, err := eventbus.NewSubscriber(bus, outTopic, outKey)
	if err != nil {
		return nil, err
	}
	return NewPlaneClientTransport(name, keys.Request, &busTransport{pub: pub, sub: sub})
}

// NewPlaneClientTransport builds a client that reaches the service through
// an arbitrary Transport (e.g. the wire package's HTTP transport). The
// request key stays client-side: bodies are sealed before SendFrames ever
// sees them.
func NewPlaneClientTransport(name string, requestKey cryptbox.Key, tr Transport) (*PlaneClient, error) {
	if tr == nil {
		return nil, errors.New("microsvc: nil transport")
	}
	box, err := cryptbox.NewBox(requestKey)
	if err != nil {
		return nil, err
	}
	return &PlaneClient{
		name: name, box: box, tr: tr,
		reqAAD:  reqAADFor(name),
		respAAD: respAADFor(name),
		shedAAD: shedAADFor(name),
	}, nil
}

// SendTenantIDs seals a batch of requests tagged with the given tenant ID
// ("" for untagged traffic) and sends it in one transport call. Each
// request gets a fresh monotonically increasing ID, echoed in its reply;
// the IDs are returned in request order — what a load generator needs to
// correlate replies (served and shed alike) back to send timestamps. With
// retry enabled the client keeps each request re-sendable until it is
// served or abandoned.
func (c *PlaneClient) SendTenantIDs(tenant string, reqs []PlaneRequest) ([]uint64, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(tenant) > 0xFF {
		return nil, fmt.Errorf("%w: tenant ID longer than 255 bytes", ErrBadFrame)
	}
	frames := make([][]byte, len(reqs))
	metas := make([]frameMeta, len(reqs))
	ids := make([]uint64, len(reqs))
	for i, q := range reqs {
		if len(q.Key) > 0xFFFF {
			return nil, fmt.Errorf("%w: routing key longer than 64 KiB-1", ErrBadFrame)
		}
		c.nextID++
		metas[i] = frameMeta{tenant: tenant, id: c.nextID}
		ids[i] = c.nextID
		frame, err := sealFrame(c.box, q.Key, metas[i], 0, q.Body, c.reqAAD)
		if err != nil {
			return nil, err
		}
		frames[i] = frame
	}
	if err := c.tr.SendFrames(frames); err != nil {
		return nil, err
	}
	if c.retry != nil {
		for i, q := range reqs {
			c.inflight[metas[i].id] = &inflightReq{
				meta: metas[i], key: q.Key, body: q.Body, attempt: 1,
			}
		}
	}
	return ids, nil
}

// EnableRetry turns on deterministic shed-driven retry.
func (c *PlaneClient) EnableRetry(p RetryPolicy) {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	c.retry = &p
	if c.inflight == nil {
		c.inflight = make(map[uint64]*inflightReq)
	}
}

// RetryStats reports retry totals: re-sends, abandons (MaxAttempts
// exhausted), and requests still awaiting a served reply.
func (c *PlaneClient) RetryStats() (sent, abandoned uint64, inflight int) {
	return c.retriesSent, c.retriesAbandoned, len(c.inflight)
}

// Poll drains, authenticates and opens every pending reply at simulated
// time nowMS (0 outside simulated-time loops). Served replies clear their
// in-flight entries; shed replies schedule a retry at
// nowMS + retryAfter × 2^(attempt−1) sim-ms (or abandon the request once
// MaxAttempts is exhausted). The caller re-sends due retries with
// DueRetries.
func (c *PlaneClient) Poll(nowMS float64) ([]PlaneReply, error) {
	frames, err := c.tr.RecvFrames()
	if err != nil {
		return nil, err
	}
	out := make([]PlaneReply, 0, len(frames))
	for _, f := range frames {
		q, shedFlag, err := decodeFrameAny(f)
		if err != nil {
			return nil, err
		}
		if shedFlag {
			raw, err := c.box.Open(q.sealed, c.shedAAD)
			if err != nil || len(raw) != 8 {
				return nil, ErrSealedRequest
			}
			rep := PlaneReply{
				Key: q.key, Tenant: q.meta.tenant, ID: q.meta.id,
				Shed:            true,
				RetryAfterSimMS: math.Float64frombits(binary.BigEndian.Uint64(raw)),
			}
			if c.retry != nil {
				if fl, ok := c.inflight[q.meta.id]; ok {
					if fl.attempt >= c.retry.MaxAttempts {
						delete(c.inflight, q.meta.id)
						c.retriesAbandoned++
					} else {
						fl.dueMS = nowMS + rep.RetryAfterSimMS*float64(uint64(1)<<(fl.attempt-1))
						c.retryQ = append(c.retryQ, fl)
					}
				}
			}
			out = append(out, rep)
			continue
		}
		body, err := c.box.Open(q.sealed, c.respAAD)
		if err != nil {
			return nil, ErrSealedRequest
		}
		if c.retry != nil {
			delete(c.inflight, q.meta.id)
		}
		out = append(out, PlaneReply{Key: q.key, Body: body, Tenant: q.meta.tenant, ID: q.meta.id})
	}
	return out, nil
}

// DueRetries re-sends every scheduled retry due at simulated time nowMS,
// in (due time, request ID) order — deterministic regardless of reply
// arrival interleavings. Returns how many were re-sent.
func (c *PlaneClient) DueRetries(nowMS float64) (int, error) {
	if c.retry == nil || len(c.retryQ) == 0 {
		return 0, nil
	}
	var due []*inflightReq
	rest := c.retryQ[:0]
	for _, fl := range c.retryQ {
		if fl.dueMS <= nowMS {
			due = append(due, fl)
		} else {
			rest = append(rest, fl)
		}
	}
	c.retryQ = rest
	if len(due) == 0 {
		return 0, nil
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].dueMS != due[j].dueMS {
			return due[i].dueMS < due[j].dueMS
		}
		return due[i].meta.id < due[j].meta.id
	})
	frames := make([][]byte, len(due))
	for i, fl := range due {
		frame, err := sealFrame(c.box, fl.key, fl.meta, 0, fl.body, c.reqAAD)
		if err != nil {
			return 0, err
		}
		fl.attempt++
		frames[i] = frame
	}
	if err := c.tr.SendFrames(frames); err != nil {
		return 0, err
	}
	c.retriesSent += uint64(len(frames))
	return len(frames), nil
}

// Close releases the client's transport (for the bus transport, its
// subscription).
func (c *PlaneClient) Close() { c.tr.Close() }
