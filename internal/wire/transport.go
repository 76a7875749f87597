package wire

import (
	"fmt"
	"net/http"
	"net/url"

	"securecloud/internal/microsvc"
)

// PlaneTransport carries sealed plane frames over the wire server's
// /plane/{service} endpoints. It implements microsvc.Transport, so a
// PlaneClient built on it is byte-for-byte the same client as the
// in-process one — only the hop differs. The transport remembers which
// tenants it has sent for and polls each of their mailboxes on receive.
//
// Mailboxes are keyed by tenant, not by client: run at most ONE transport
// per tenant against a given gateway. Two clients polling the same tenant
// would steal each other's reply frames — whichever polls first drains
// the shared mailbox, and replies whose request IDs the other client does
// not recognize are dropped. The wire suite of cmd/bench assigns each
// client its own tenant for exactly this reason.
type PlaneTransport struct {
	base    string // e.g. http://127.0.0.1:8080/plane/checkout
	hc      *http.Client
	auth    string
	tenants []string
	seen    map[string]bool
}

var _ microsvc.Transport = (*PlaneTransport)(nil)

// NewPlaneTransport builds a transport for one service behind baseURL.
// See the type comment: one transport per tenant.
func NewPlaneTransport(baseURL, service string, hc *http.Client) *PlaneTransport {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &PlaneTransport{
		base: baseURL + "/plane/" + url.PathEscape(service),
		hc:   hc,
		seen: make(map[string]bool),
	}
}

// WithAuth sets the bearer token (the server's Config.AuthToken) sent on
// every request, and returns the transport for chaining.
func (t *PlaneTransport) WithAuth(token string) *PlaneTransport {
	t.auth = token
	return t
}

// SendFrames implements microsvc.Transport.
func (t *PlaneTransport) SendFrames(frames [][]byte) error {
	for _, f := range frames {
		tenant, _, err := microsvc.PeekFrameTenant(f)
		if err != nil {
			return err
		}
		if !t.seen[tenant] {
			t.seen[tenant] = true
			t.tenants = append(t.tenants, tenant)
		}
	}
	_, err := doRequest(t.hc, http.MethodPost, t.base+"/send", t.auth, EncodeBatch(frames))
	return err
}

// RecvFrames implements microsvc.Transport: it polls the mailbox of every
// tenant this transport has sent for, in first-send order, and returns the
// concatenated reply frames.
func (t *PlaneTransport) RecvFrames() ([][]byte, error) {
	var out [][]byte
	for _, tenant := range t.tenants {
		body, err := doRequest(t.hc, http.MethodGet, t.base+"/poll?tenant="+url.QueryEscape(tenant), t.auth, nil)
		if err != nil {
			return nil, fmt.Errorf("wire: poll %s: %w", tenant, err)
		}
		frames, err := DecodeBatch(body)
		if err != nil {
			return nil, err
		}
		out = append(out, frames...)
	}
	return out, nil
}

// Close implements microsvc.Transport.
func (t *PlaneTransport) Close() {}
