package microsvc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"securecloud/internal/attest"
	"securecloud/internal/codec"
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

// inflightReq is one sent request the client can still re-send. queued
// marks it shed and waiting in retryQ: until DueRetries re-sends it, no
// reply answers it.
type inflightReq struct {
	meta    frameMeta
	key     string
	body    []byte
	attempt int
	dueMS   float64
	queued  bool
}

// Transport moves sealed plane frames between a client and a service's
// topics. The default is the in-process bus transport; the wire package
// provides an HTTP transport with identical semantics. SendFrames must
// deliver a batch atomically in order, and may keep the frames it is
// given: the client never touches them again. RecvFrames drains every
// frame currently pending for this client and hands the frames over: the
// caller owns them and may overwrite them (PlaneClient.Poll opens replies
// in place).
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

	// Frame AADs, built in buffers reused across frames.
	reqAAD  *frameAAD
	respAAD *frameAAD
	shedAAD *frameAAD

	// inflight holds the ID of every sent request until its final reply —
	// served, shed with retry off, or abandoned — so Poll refuses a reply
	// to any other ID, or to a request queued for a retry, e.g. one the
	// transport replays. With retry on the value is the re-sendable
	// request, otherwise nil.
	inflight map[uint64]*inflightReq

	// Retry state (nil retry = fire-and-forget). All of it is driven by
	// the caller's sim-ms clock, never a host clock: Poll schedules,
	// DueRetries re-sends.
	retry            *RetryPolicy
	nextID           uint64
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

		inflight: make(map[uint64]*inflightReq),
	}, nil
}

// SendTenantIDs seals a batch of requests tagged with the given tenant ID
// ("" for untagged traffic) and sends it in one transport call. Each
// request gets a fresh monotonically increasing ID, echoed in its reply;
// the IDs are returned in request order — what a load generator needs to
// correlate replies (served and shed alike) back to send timestamps. The
// client tracks each ID until its final reply; with retry enabled it also
// keeps each request re-sendable until it is served or abandoned.
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
		frame, err := sealFrame(nil, c.box, q.Key, metas[i], 0, q.Body, c.reqAAD)
		if err != nil {
			return nil, err
		}
		frames[i] = frame
	}
	if err := c.tr.SendFrames(frames); err != nil {
		return nil, err
	}
	for i, q := range reqs {
		var fl *inflightReq
		if c.retry != nil {
			fl = &inflightReq{meta: metas[i], key: q.Key, body: q.Body, attempt: 1}
		}
		c.inflight[metas[i].id] = fl
	}
	return ids, nil
}

// EnableRetry turns on deterministic shed-driven retry.
func (c *PlaneClient) EnableRetry(p RetryPolicy) {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	c.retry = &p
}

// RetryStats reports retry totals: re-sends, abandons (MaxAttempts
// exhausted), and requests still awaiting their final reply.
func (c *PlaneClient) RetryStats() (sent, abandoned uint64, inflight int) {
	return c.retriesSent, c.retriesAbandoned, len(c.inflight)
}

// Poll drains, authenticates and opens every pending reply at simulated
// time nowMS (0 outside simulated-time loops). Replies are opened in place
// in the frames RecvFrames handed over, so a Body aliases its frame. A
// reply that authenticates but answers no outstanding request — one never
// sent, already finally answered, or shed and not yet re-sent, as a
// replayed frame is — fails the poll. Served replies clear their
// in-flight entries; shed replies schedule a retry at nowMS + retryAfter ×
// 2^(attempt−1) sim-ms (or abandon the request once MaxAttempts is
// exhausted; with retry off a shed reply is final). The caller re-sends
// due retries with DueRetries.
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
			raw, err := openFrame(c.box, q, frameFlagShed, c.shedAAD)
			retryAfter, r := codec.NewReader(raw).U64()
			rep := PlaneReply{
				Key: q.key, Tenant: q.meta.tenant, ID: q.meta.id,
				Shed:            true,
				RetryAfterSimMS: math.Float64frombits(retryAfter),
			}
			if err != nil || r.Done() != nil {
				return nil, ErrSealedRequest
			}
			fl, ok := c.awaiting(q.meta.id)
			switch {
			case !ok:
				return nil, c.notOutstanding(q.meta.id)
			case fl == nil: // sent with retry off: the shed is final
				delete(c.inflight, q.meta.id)
			case fl.attempt >= c.retry.MaxAttempts:
				delete(c.inflight, q.meta.id)
				c.retriesAbandoned++
			default:
				fl.dueMS = nowMS + rep.RetryAfterSimMS*float64(uint64(1)<<(fl.attempt-1))
				fl.queued = true
				c.retryQ = append(c.retryQ, fl)
			}
			out = append(out, rep)
			continue
		}
		body, err := openFrame(c.box, q, 0, c.respAAD)
		if err != nil {
			return nil, ErrSealedRequest
		}
		if _, ok := c.awaiting(q.meta.id); !ok {
			return nil, c.notOutstanding(q.meta.id)
		}
		delete(c.inflight, q.meta.id)
		out = append(out, PlaneReply{Key: q.key, Body: body, Tenant: q.meta.tenant, ID: q.meta.id})
	}
	return out, nil
}

// awaiting returns request id's in-flight entry and whether a reply may
// answer it: the request was sent, has had no final reply, and is not
// queued for a retry.
func (c *PlaneClient) awaiting(id uint64) (*inflightReq, bool) {
	fl, ok := c.inflight[id]
	return fl, ok && (fl == nil || !fl.queued)
}

// notOutstanding is Poll's error for an authentic reply to request id,
// which the client is not awaiting.
func (c *PlaneClient) notOutstanding(id uint64) error {
	return fmt.Errorf("microsvc: client %s got a reply for request %d, which is not outstanding", c.name, id)
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
		frame, err := sealFrame(nil, c.box, fl.key, fl.meta, 0, fl.body, c.reqAAD)
		if err != nil {
			return 0, err
		}
		fl.attempt++
		fl.queued = false
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
