package wire

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"securecloud/internal/attest"
	"securecloud/internal/enclave"
	"securecloud/internal/scbr"
)

// SCBRClient is an SCBR endpoint reached over the wire server. The
// handshake and every envelope are the same bytes the in-process client
// exchanges — the server relays them to the broker without opening
// anything, so a compromised front end degrades availability, never
// confidentiality. Polls carry a sealed single-use token (the broker
// refuses drains without proof of the session key), and a live client ID
// can only be re-keyed through Rehandshake, which proves possession of the
// current key.
type SCBRClient struct {
	base string
	id   string
	hc   *http.Client
	auth string
	c    *scbr.Client
}

// SCBRDialOpts tunes DialSCBROpts. The zero value dials plainly:
// no bearer token, no attestation.
type SCBRDialOpts struct {
	// Auth is the wire server's bearer token (Config.AuthToken), sent as
	// `Authorization: Bearer <token>` on every request.
	Auth string
	// Service and Policy, when Service is non-nil, attest the broker
	// before the handshake: the dialer fetches a nonce-bound quote from
	// /scbr/quote, verifies it at the attestation service and checks the
	// relying-party policy — the wire analogue of scbr.Connect's
	// in-process attestation, refusing to hand filters to an unverified
	// router.
	Service *attest.Service
	Policy  attest.Policy
}

// wireQuote is the JSON rendering of an attest.Quote on /scbr/quote.
type wireQuote struct {
	PlatformID string `json:"platform_id"`
	Report     []byte `json:"report"`
	Signature  []byte `json:"signature"`
}

// DialSCBROpts performs the X25519 handshake over HTTP and returns a
// session-keyed client, with a bearer token and/or broker attestation when
// opts asks for them (the zero SCBRDialOpts: neither).
func DialSCBROpts(baseURL, clientID string, hc *http.Client, opts SCBRDialOpts) (*SCBRClient, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if opts.Service != nil {
		if err := attestBroker(hc, baseURL, opts.Auth, opts.Service, opts.Policy); err != nil {
			return nil, err
		}
	}
	h, err := scbr.BeginHandshake(clientID)
	if err != nil {
		return nil, err
	}
	brokerPub, err := doRequest(hc, http.MethodPost, baseURL+"/scbr/handshake/"+clientID, opts.Auth, h.Public())
	if err != nil {
		return nil, err
	}
	c, err := h.Finish(brokerPub)
	if err != nil {
		return nil, err
	}
	return &SCBRClient{base: baseURL, id: clientID, hc: hc, auth: opts.Auth, c: c}, nil
}

// attestBroker fetches a fresh, nonce-bound quote of the broker enclave
// over the wire and verifies it against the attestation service and the
// caller's policy before any filter crosses the transport.
func attestBroker(hc *http.Client, baseURL, auth string, svc *attest.Service, policy attest.Policy) error {
	var nonce [32]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	body, err := doRequest(hc, http.MethodGet,
		baseURL+"/scbr/quote?nonce="+hex.EncodeToString(nonce[:]), auth, nil)
	if err != nil {
		return fmt.Errorf("wire: broker quote: %w", err)
	}
	var wq wireQuote
	if err := json.Unmarshal(body, &wq); err != nil {
		return fmt.Errorf("wire: broker quote: %w", err)
	}
	report, ok := enclave.UnmarshalReport(wq.Report)
	if !ok {
		return fmt.Errorf("wire: broker quote: malformed report")
	}
	v, err := svc.Verify(attest.Quote{PlatformID: wq.PlatformID, Report: report, Signature: wq.Signature})
	if err != nil {
		return fmt.Errorf("wire: broker attestation failed: %w", err)
	}
	if !bytes.Equal(v.Data[:len(nonce)], nonce[:]) {
		return fmt.Errorf("wire: broker quote: nonce mismatch (replayed quote?)")
	}
	if err := policy.Check(v); err != nil {
		return fmt.Errorf("wire: broker attestation failed: %w", err)
	}
	return nil
}

// Rehandshake rotates the session key in place, proving possession of the
// current one — the only way a live client ID can be re-keyed over the
// wire (a bare handshake against a live session is rejected with 409).
func (s *SCBRClient) Rehandshake() error {
	h, err := scbr.BeginHandshake(s.id)
	if err != nil {
		return err
	}
	sealed, err := s.c.SealRehandshake(h)
	if err != nil {
		return err
	}
	brokerPub, err := doRequest(s.hc, http.MethodPost, s.base+"/scbr/rehandshake/"+s.id, s.auth, sealed)
	if err != nil {
		return err
	}
	c, err := h.Finish(brokerPub)
	if err != nil {
		return err
	}
	s.c = c
	return nil
}

func (s *SCBRClient) postSealed(path string, sealed []byte, out any) error {
	body, err := doRequest(s.hc, http.MethodPost, s.base+path+"/"+s.id, s.auth, sealed)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// Subscribe registers a subscription and returns its broker-assigned ID.
func (s *SCBRClient) Subscribe(sub scbr.Subscription) (uint64, error) {
	sealed, err := s.c.SealSubscriptionBytes(sub)
	if err != nil {
		return 0, err
	}
	var res struct {
		ID uint64 `json:"id"`
	}
	if err := s.postSealed("/scbr/subscribe", sealed, &res); err != nil {
		return 0, err
	}
	return res.ID, nil
}

// Publish routes an event through the broker and returns how many
// subscribers it was delivered to.
func (s *SCBRClient) Publish(e scbr.Event) (int, error) {
	sealed, err := s.c.SealEventBytes(e)
	if err != nil {
		return 0, err
	}
	var res struct {
		Delivered int `json:"delivered"`
	}
	if err := s.postSealed("/scbr/publish", sealed, &res); err != nil {
		return 0, err
	}
	return res.Delivered, nil
}

// Poll drains and opens this client's pending deliveries. The request
// carries a sealed single-use poll token, so only the session holder can
// trigger the (destructive) drain.
func (s *SCBRClient) Poll() ([]scbr.Event, error) {
	token, err := s.c.SealPollToken()
	if err != nil {
		return nil, err
	}
	body, err := doRequest(s.hc, http.MethodPost, s.base+"/scbr/poll/"+s.id, s.auth, token)
	if err != nil {
		return nil, err
	}
	frames, err := DecodeBatch(body)
	if err != nil {
		return nil, err
	}
	events := make([]scbr.Event, 0, len(frames))
	for _, f := range frames {
		e, err := s.c.OpenDeliverySealed(f)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}
