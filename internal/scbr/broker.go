package scbr

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"securecloud/internal/attest"
	"securecloud/internal/codec"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// ErrSessionExists rejects a handshake that would displace a live session.
// Re-keying a live client ID requires proof of the current session key
// (Rehandshake) — otherwise any peer that can reach the broker could take
// over a client ID and have future deliveries sealed to its own key.
var ErrSessionExists = errors.New("scbr: session already established")

// ErrReplayedToken rejects a poll token whose counter is not strictly
// greater than the last one the session accepted.
var ErrReplayedToken = errors.New("scbr: poll token replayed")

// Broker is the SCBR routing engine. Its matching state (the containment
// index) lives inside enclaves; clients talk to it in encrypted envelopes
// over per-client session keys established with an attested Diffie-Hellman
// exchange. The untrusted host routing the envelopes learns neither filters
// nor publication content — the privacy property that motivates SCBR
// (§V-B).
//
// Concurrency model (shard-per-core): the subscription store is a
// ShardedIndex — one containment forest per shard, each on its own
// simulated platform — so Publish matches all shards in parallel through
// read-only snapshot spans while Subscribe/Unsubscribe lock only the home
// shard of the affected ID. Broker-level control state — sessions, the
// owner table and the client ordinals it stores — sits behind a
// reader/writer lock that Publish only ever read-locks, and delivery
// queues behind their own mutex, appended once per publish after all
// per-subscriber sealing has happened outside any lock.
type Broker struct {
	enc *enclave.Enclave
	six *ShardedIndex

	mu       sync.RWMutex // sessions, owners, clients, ords, nextSub
	sessions map[string]*session
	owners   map[uint64]*ownerPage // by page number, id / ownerPageIDs
	clients  []string              // client ID by ordinal; [0] is unused
	ords     map[string]uint32     // ordinal by client ID
	nextSub  uint64

	qmu    sync.Mutex
	queues map[string][]Delivery
}

// The owner table maps a subscription ID to the ordinal of the client that
// registered it, so Publish resolves a match to its recipient with one
// array load rather than a hash of the ID. Broker IDs are dense and
// sequential, so the table is paged like the index's locator: a page of
// ownerPageIDs ordinals is allocated when its first ID registers and
// dropped when its last one leaves, which bounds it by the live IDs.
// Ordinals start at 1, so 0 marks a free slot. A client ID keeps its
// ordinal for the broker's lifetime, as it keeps its session entry, so
// the ordinals are bounded by the clients that ever subscribed.
const ownerPageIDs = 512

// ownerPage holds the owner ordinals of IDs [k*ownerPageIDs,
// (k+1)*ownerPageIDs).
type ownerPage struct {
	live int // non-zero slots
	ords [ownerPageIDs]uint32
}

// owner returns the ordinal of subID's owner, 0 if subID is not live.
// Caller holds b.mu.
func (b *Broker) owner(subID uint64) uint32 {
	if pg := b.owners[subID/ownerPageIDs]; pg != nil {
		return pg.ords[subID%ownerPageIDs]
	}
	return 0
}

// setOwner records ord as subID's owner (0 frees the slot), allocating the
// page for the first ID in its range and dropping it after the last.
// Caller holds b.mu for writing.
func (b *Broker) setOwner(subID uint64, ord uint32) {
	k, slot := subID/ownerPageIDs, subID%ownerPageIDs
	pg := b.owners[k]
	if pg == nil {
		if ord == 0 {
			return
		}
		pg = &ownerPage{}
		b.owners[k] = pg
	}
	switch was := pg.ords[slot]; {
	case was == 0 && ord != 0:
		pg.live++
	case was != 0 && ord == 0:
		pg.live--
	}
	pg.ords[slot] = ord
	if pg.live == 0 {
		delete(b.owners, k)
	}
}

// ordinal returns clientID's ordinal, assigning the next one on its first
// subscription. Caller holds b.mu for writing.
func (b *Broker) ordinal(clientID string) uint32 {
	if o, ok := b.ords[clientID]; ok {
		return o
	}
	o := uint32(len(b.clients))
	b.clients = append(b.clients, clientID)
	b.ords[clientID] = o
	return o
}

// session is one client's established state: its AEAD context, the
// precomputed delivery AAD, and the highest poll-token counter accepted
// (the replay horizon for DrainSealed).
type session struct {
	id      string
	box     *cryptbox.Box
	aad     []byte // "delivery|<clientID>"
	pollSeq atomic.Uint64
}

func aadPoll(clientID string) []byte        { return []byte("poll|" + clientID) }
func aadRehandshake(clientID string) []byte { return []byte("rehandshake|" + clientID) }

// BrokerConfig sizes the broker.
type BrokerConfig struct {
	// PayloadBytes per subscription in the index (routing state).
	PayloadBytes int
	// CheckCost is the CPU cost per filter comparison.
	CheckCost sim.Cycles
	// Shards is the number of index shards (0 = GOMAXPROCS). A topology
	// parameter: it determines subscription placement and therefore the
	// simulated figures — pin it when comparing runs.
	Shards int
	// MatchWorkers bounds the per-publish match fan-out (0 = GOMAXPROCS).
	// Execution-only: simulated totals are identical for any value.
	MatchWorkers int
	// ShardBytes sizes each shard enclave (0 = the broker enclave's size).
	ShardBytes uint64
}

// DefaultBrokerConfig mirrors the SCBR prototype's footprint.
func DefaultBrokerConfig() BrokerConfig {
	return BrokerConfig{PayloadBytes: 2048, CheckCost: 450}
}

// NewBroker builds a broker whose matching state lives on shard enclaves
// configured like enc's platform (enc itself remains the attested front
// door charged for enclave transitions).
func NewBroker(enc *enclave.Enclave, cfg BrokerConfig) (*Broker, error) {
	shardBytes := cfg.ShardBytes
	if shardBytes == 0 {
		shardBytes = enc.Size()
	}
	six, err := NewShardedIndex(ShardedIndexConfig{
		Shards:       cfg.Shards,
		Workers:      cfg.MatchWorkers,
		PayloadBytes: cfg.PayloadBytes,
		CheckCost:    cfg.CheckCost,
		Accounted:    true,
		Platform:     enc.Platform().Config(),
		ShardBytes:   shardBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Broker{
		enc:      enc,
		six:      six,
		sessions: make(map[string]*session),
		owners:   make(map[uint64]*ownerPage),
		clients:  []string{""},
		ords:     make(map[string]uint32),
		queues:   make(map[string][]Delivery),
	}, nil
}

// Index exposes the underlying sharded index (diagnostics, benchmarks).
func (b *Broker) Index() *ShardedIndex { return b.six }

// Enclave returns the broker's front enclave.
func (b *Broker) Enclave() *enclave.Enclave { return b.enc }

// Handshake is the broker half of the session establishment: it receives
// the client's X25519 public key and returns the broker's. The session key
// is derived inside the enclave. A handshake never displaces a live
// session (ErrSessionExists): otherwise any peer that can name a client ID
// would have the victim's future deliveries sealed to its own key. Rotate
// a live session with Rehandshake, which proves possession of the old key.
func (b *Broker) Handshake(clientID string, clientPub []byte) ([]byte, error) {
	return b.establish(clientID, clientPub, false)
}

// Rehandshake rotates an established session: sealedPub is the client's
// NEW X25519 public key sealed under the CURRENT session key with AAD
// "rehandshake|<clientID>" (Client.SealRehandshake). Possession of the old
// key is what authorizes replacement, so a hostile front end or network
// peer cannot take over a live client ID.
func (b *Broker) Rehandshake(clientID string, sealedPub []byte) ([]byte, error) {
	sess, err := b.session(clientID)
	if err != nil {
		return nil, err
	}
	newPub, err := sess.box.Open(sealedPub, aadRehandshake(clientID))
	if err != nil {
		return nil, ErrBadEnvelope
	}
	brokerPub, err := b.establish(clientID, newPub, true)
	if errors.Is(err, errClientKey) {
		// The proof authenticated, but what it carries is no usable
		// X25519 key: as forged as a failed seal.
		return nil, fmt.Errorf("%w: rehandshake: %w", ErrBadEnvelope, err)
	}
	return brokerPub, err
}

// errClientKey marks a client public key that is no usable X25519 key,
// as opposed to a fault of the broker's own.
var errClientKey = errors.New("scbr: client key")

// establish derives a session from a client public key and installs it.
// The ECDH work runs before the lock; the liveness check and the map write
// are one critical section, so two racing fresh handshakes cannot both win.
func (b *Broker) establish(clientID string, clientPub []byte, replace bool) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(clientPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errClientKey, err)
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errClientKey, err) // a low-order point
	}
	key, err := sessionKeyFrom(shared, clientID)
	if err != nil {
		return nil, err
	}
	// Session keys are ephemeral (fresh X25519 exchange per handshake), so
	// the AEAD context lives in the session record — not in the process-
	// wide CachedBox intern table, which never evicts — and dies with it.
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if _, live := b.sessions[clientID]; live && !replace {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (rotate it with Rehandshake)", ErrSessionExists, clientID)
	}
	b.sessions[clientID] = &session{id: clientID, box: box, aad: []byte("delivery|" + clientID)}
	b.mu.Unlock()
	return priv.PublicKey().Bytes(), nil
}

func sessionKeyFrom(shared []byte, clientID string) (cryptbox.Key, error) {
	raw, err := cryptbox.HKDF(shared, nil, []byte("scbr-session|"+clientID), cryptbox.KeySize)
	if err != nil {
		return cryptbox.Key{}, err
	}
	return cryptbox.KeyFromBytes(raw)
}

func (b *Broker) session(clientID string) (*session, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.sessions[clientID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClient, clientID)
	}
	return s, nil
}

// Subscribe registers an encrypted subscription and returns its broker-
// assigned ID. The matching step — decrypt, containment search, insert —
// runs inside the enclave (one entry per request). A filter NewSubscription
// would refuse (no predicate, an empty or NaN interval) is refused here
// too. Only the home shard of the new ID is write-locked.
func (b *Broker) Subscribe(env Envelope) (uint64, error) {
	sess, err := b.session(env.ClientID)
	if err != nil {
		return 0, err
	}
	if err := b.enc.EEnter(); err != nil {
		return 0, err
	}
	defer func() { _ = b.enc.EExit() }()

	raw, err := openEnvelopeWith(sess.box, env)
	if err != nil {
		return 0, err
	}
	s, err := decodeSubscription(raw)
	if err != nil {
		return 0, err
	}
	if err := s.validate(); err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.nextSub++
	s.ID = b.nextSub
	b.setOwner(s.ID, b.ordinal(env.ClientID))
	b.mu.Unlock()
	s.Normalize()
	b.six.Insert(s)
	return s.ID, nil
}

// Unsubscribe removes a subscription. Only the client that registered it
// may remove it; the broker enforces ownership inside the enclave.
func (b *Broker) Unsubscribe(clientID string, subID uint64) error {
	if _, err := b.session(clientID); err != nil {
		return err
	}
	b.mu.RLock()
	owner := b.owner(subID)
	mine := owner != 0 && b.clients[owner] == clientID
	b.mu.RUnlock()
	if owner == 0 {
		return fmt.Errorf("scbr: unknown subscription %d", subID)
	}
	if !mine {
		return fmt.Errorf("scbr: subscription %d not owned by %s", subID, clientID)
	}
	if err := b.enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = b.enc.EExit() }()
	if b.six.Remove(subID) {
		b.mu.Lock()
		b.setOwner(subID, 0)
		b.mu.Unlock()
	}
	return nil
}

// Publish routes an encrypted publication: decrypt inside the enclave,
// match against all index shards in parallel, and enqueue one re-encrypted
// delivery per matching subscriber under that subscriber's session key.
// The decrypted plaintext is reused verbatim as the delivery payload (no
// re-encode), per-subscriber sealing runs outside every broker lock with
// the session's interned AEAD, and the queues lock is taken once.
func (b *Broker) Publish(env Envelope) (delivered int, err error) {
	sess, err := b.session(env.ClientID)
	if err != nil {
		return 0, err
	}
	if err := b.enc.EEnter(); err != nil {
		return 0, err
	}
	defer func() { _ = b.enc.EExit() }()

	raw, err := openEnvelopeWith(sess.box, env)
	if err != nil {
		return 0, err
	}
	e, err := decodeEvent(raw)
	if err != nil {
		return 0, err
	}
	matched := b.six.Match(e)
	if len(matched) == 0 {
		return 0, nil
	}

	// Resolve matched IDs to unique subscriber sessions under the read
	// lock: one owner-page lookup per page the IDs cross, one ordinal load
	// per ID, a dedupe bitmap over the ordinals and one session lookup per
	// distinct recipient. matched is in ascending ID order, so the
	// recipient list — and with it delivery order — is deterministic.
	b.mu.RLock()
	seen := make([]uint64, (len(b.clients)+63)/64)
	recipients := make([]*session, 0, min(len(matched), len(b.clients)))
	var pg *ownerPage
	pk := ^uint64(0)
	for _, subID := range matched {
		if k := subID / ownerPageIDs; k != pk {
			pg, pk = b.owners[k], k
		}
		if pg == nil {
			continue
		}
		o := pg.ords[subID%ownerPageIDs]
		if o == 0 || seen[o/64]&(1<<(o%64)) != 0 {
			continue
		}
		seen[o/64] |= 1 << (o % 64)
		if cs := b.sessions[b.clients[o]]; cs != nil {
			recipients = append(recipients, cs)
		}
	}
	b.mu.RUnlock()

	// Seal outside any lock; the AEAD context and AAD are per-session
	// precomputed, the payload is the already-decrypted raw plaintext.
	// All per-recipient deliveries seal into one contiguous buffer of
	// exact capacity (the AEAD overhead is fixed), so the fan-out costs
	// two allocations instead of one per recipient; capacity-capped
	// sub-slices keep the Delivery views independent.
	dels := make([]Delivery, len(recipients))
	capTotal := 0
	for _, cs := range recipients {
		capTotal += len(raw) + cs.box.Overhead()
	}
	buf := make([]byte, 0, capTotal)
	for i, cs := range recipients {
		start := len(buf)
		var err error
		buf, err = cs.box.SealAppend(buf, raw, cs.aad)
		if err != nil {
			return 0, err
		}
		dels[i] = Delivery{SubscriberID: cs.id, Sealed: buf[start:len(buf):len(buf)]}
	}

	b.qmu.Lock()
	for i := range dels {
		b.queues[dels[i].SubscriberID] = append(b.queues[dels[i].SubscriberID], dels[i])
	}
	b.qmu.Unlock()
	return len(dels), nil
}

// Drain returns and clears a client's pending deliveries (what the
// untrusted transport would push to the subscriber). Draining is
// destructive, so only callers trusted with the *Broker itself (in-process
// code) should use it directly — a remote front end must use DrainSealed,
// which demands proof of the session key.
func (b *Broker) Drain(clientID string) []Delivery {
	b.qmu.Lock()
	defer b.qmu.Unlock()
	out := b.queues[clientID]
	delete(b.queues, clientID)
	return out
}

// DrainSealed is Drain behind proof of session: token is an 8-byte
// big-endian counter sealed under the session key with AAD
// "poll|<clientID>" (Client.SealPollToken), strictly greater than any
// counter this session has accepted. An unauthenticated peer cannot drain
// (and thereby destroy) another client's queue, and a captured token
// cannot be replayed.
func (b *Broker) DrainSealed(clientID string, token []byte) ([]Delivery, error) {
	sess, err := b.session(clientID)
	if err != nil {
		return nil, err
	}
	raw, err := sess.box.Open(token, aadPoll(clientID))
	if err != nil {
		return nil, ErrBadEnvelope
	}
	seq, r := codec.NewReader(raw).U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: poll token: %w", ErrBadEnvelope, err)
	}
	for {
		cur := sess.pollSeq.Load()
		if seq <= cur {
			return nil, fmt.Errorf("%w: counter %d, horizon %d", ErrReplayedToken, seq, cur)
		}
		if sess.pollSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	return b.Drain(clientID), nil
}

// Client is an SCBR publisher/subscriber endpoint holding its session key.
type Client struct {
	ID      string
	box     *cryptbox.Box
	aad     []byte // "delivery|<clientID>", precomputed once
	pollSeq atomic.Uint64
}

// ClientHello is the client half of the session handshake, split in two so
// the broker's Handshake can be reached over any transport — in-process or
// the wire package's HTTP endpoint. BeginHandshake mints the ephemeral
// X25519 key; the caller carries Public() to the broker and feeds the
// broker's public key to Finish.
type ClientHello struct {
	clientID string
	priv     *ecdh.PrivateKey
}

// BeginHandshake starts a session establishment for clientID.
func BeginHandshake(clientID string) (*ClientHello, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &ClientHello{clientID: clientID, priv: priv}, nil
}

// Public returns the client's X25519 public key — what the broker's
// Handshake takes.
func (h *ClientHello) Public() []byte { return h.priv.PublicKey().Bytes() }

// Finish derives the session from the broker's public key and returns the
// established client.
func (h *ClientHello) Finish(brokerPub []byte) (*Client, error) {
	bp, err := ecdh.X25519().NewPublicKey(brokerPub)
	if err != nil {
		return nil, fmt.Errorf("scbr: broker key: %w", err)
	}
	shared, err := h.priv.ECDH(bp)
	if err != nil {
		return nil, err
	}
	key, err := sessionKeyFrom(shared, h.clientID)
	if err != nil {
		return nil, err
	}
	return newClient(h.clientID, key)
}

// newClient is the client end of an established session under key.
func newClient(id string, key cryptbox.Key) (*Client, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	return &Client{ID: id, box: box, aad: []byte("delivery|" + id)}, nil
}

// Connect establishes a session with the broker. When svc and quoter are
// non-nil the client first attests the broker's enclave against policy —
// refusing to hand filters to an unverified router.
func Connect(b *Broker, clientID string, svc *attest.Service, quoter *attest.Quoter, policy attest.Policy) (*Client, error) {
	if svc != nil && quoter != nil {
		if _, err := attest.AttestEnclave(b.enc, quoter, svc, policy, nil); err != nil {
			return nil, fmt.Errorf("scbr: broker attestation failed: %w", err)
		}
	}
	h, err := BeginHandshake(clientID)
	if err != nil {
		return nil, err
	}
	brokerPub, err := b.Handshake(clientID, h.Public())
	if err != nil {
		return nil, err
	}
	return h.Finish(brokerPub)
}

// Subscribe seals and registers a subscription.
func (c *Client) Subscribe(b *Broker, s Subscription) (uint64, error) {
	sealed, err := c.SealSubscriptionBytes(s)
	if err != nil {
		return 0, err
	}
	return b.Subscribe(Envelope{ClientID: c.ID, Kind: KindSubscription, Sealed: sealed})
}

// Publish seals and routes an event.
func (c *Client) Publish(b *Broker, e Event) (int, error) {
	sealed, err := c.SealEventBytes(e)
	if err != nil {
		return 0, err
	}
	return b.Publish(Envelope{ClientID: c.ID, Kind: KindPublication, Sealed: sealed})
}

// Receive drains and decrypts pending deliveries with the client's held
// AEAD context.
func (c *Client) Receive(b *Broker) ([]Event, error) {
	var out []Event
	for _, d := range b.Drain(c.ID) {
		e, err := c.OpenDeliverySealed(d.Sealed)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// SealSubscriptionBytes seals s into the envelope body the broker's
// Subscribe expects — the binary codec under the session key, AAD-bound to
// KindSubscription and the client ID. The bytes are exactly what Subscribe
// puts in Envelope.Sealed, so a remote transport (the wire package)
// carries the already-tested envelope form with no new crypto.
func (c *Client) SealSubscriptionBytes(s Subscription) ([]byte, error) {
	buf := cryptbox.GetScratch()
	defer cryptbox.PutScratch(buf)
	b, err := appendSubscription(*buf, s)
	if err != nil {
		return nil, err
	}
	*buf = b
	return c.box.Seal(b, []byte(KindSubscription+"|"+c.ID))
}

// SealEventBytes seals e into the envelope body the broker's Publish
// expects (see SealSubscriptionBytes).
func (c *Client) SealEventBytes(e Event) ([]byte, error) {
	buf := cryptbox.GetScratch()
	defer cryptbox.PutScratch(buf)
	b, err := appendEvent(*buf, e)
	if err != nil {
		return nil, err
	}
	*buf = b
	return c.box.Seal(b, []byte(KindPublication+"|"+c.ID))
}

// SealPollToken mints the next poll authorization for DrainSealed: the
// client's own monotonically increasing counter, sealed under the session
// key. Each token is single-use (the broker advances its replay horizon to
// the token's counter), so mint a fresh one per poll.
func (c *Client) SealPollToken() ([]byte, error) {
	return c.box.Seal(binary.BigEndian.AppendUint64(nil, c.pollSeq.Add(1)), aadPoll(c.ID))
}

// SealRehandshake seals the new handshake's public key under the current
// session key — the possession proof Broker.Rehandshake demands before it
// lets a live session be re-keyed.
func (c *Client) SealRehandshake(h *ClientHello) ([]byte, error) {
	return c.box.Seal(h.Public(), aadRehandshake(c.ID))
}

// OpenDeliverySealed authenticates and decodes one sealed delivery payload
// (a Delivery.Sealed, however it was transported).
func (c *Client) OpenDeliverySealed(sealed []byte) (Event, error) {
	raw, err := c.box.Open(sealed, c.aad)
	if err != nil {
		return Event{}, ErrBadEnvelope
	}
	return decodeEvent(raw)
}
