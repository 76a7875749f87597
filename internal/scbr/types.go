// Package scbr implements SCBR, SecureCloud's secure content-based routing
// engine (paper §V-B; Pires et al., Middleware '16): a publish/subscribe
// router whose matching step runs inside an SGX enclave. Outside the
// enclave, publications and subscriptions are encrypted and signed;
// inside, a containment-based index keeps the number of comparisons per
// publication low by exploiting covering relations between filters.
//
// The package is the subject of the paper's only quantitative figure
// (Figure 3): registration throughput collapses once the subscription
// database outgrows the EPC. The index therefore runs against the enclave
// memory model, charging a simulated cost for every node it touches, so
// the harness can regenerate the figure.
package scbr

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"securecloud/internal/cryptbox"
)

// Interval is a closed numeric interval [Lo, Hi]. Equality predicates are
// degenerate intervals with Lo == Hi.
type Interval struct {
	Lo float64
	Hi float64
}

// FullRange is the interval admitting every value.
func FullRange() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// Valid reports whether the interval is non-empty.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// Covers reports whether iv fully contains other.
func (iv Interval) Covers(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Subscription is a conjunctive filter: one interval constraint per
// attribute. An event matches when every constrained attribute has a value
// inside its interval.
type Subscription struct {
	ID uint64
	// Preds holds the constraints sorted by attribute name (canonical
	// form, maintained by Normalize).
	Preds []Predicate
}

// Predicate constrains one attribute to an interval.
type Predicate struct {
	Attr     string
	Interval Interval
}

// Errors for filter construction and envelope handling.
var (
	ErrEmptyFilter   = errors.New("scbr: subscription with no valid predicates")
	ErrBadEnvelope   = errors.New("scbr: envelope authentication failed")
	ErrUnknownClient = errors.New("scbr: unknown client")
)

// NewSubscription builds a canonical subscription from attribute intervals.
func NewSubscription(id uint64, preds map[string]Interval) (Subscription, error) {
	s := Subscription{ID: id}
	for attr, iv := range preds {
		s.Preds = append(s.Preds, Predicate{Attr: attr, Interval: iv})
	}
	if err := s.validate(); err != nil {
		return Subscription{}, err
	}
	s.Normalize()
	return s, nil
}

// validate checks the rules every stored filter obeys: at least one
// predicate — a filter without one covers every other and would sit above
// the whole forest — and every interval non-empty (Lo ≤ Hi, which no NaN
// bound satisfies).
func (s Subscription) validate() error {
	if len(s.Preds) == 0 {
		return ErrEmptyFilter
	}
	for _, p := range s.Preds {
		if !p.Interval.Valid() {
			return fmt.Errorf("scbr: empty interval on %q", p.Attr)
		}
	}
	return nil
}

// Normalize sorts predicates by attribute, establishing canonical form.
func (s *Subscription) Normalize() {
	sort.Slice(s.Preds, func(i, j int) bool { return s.Preds[i].Attr < s.Preds[j].Attr })
}

// Event is a publication: attribute/value pairs plus an opaque payload.
type Event struct {
	Attrs   map[string]float64
	Payload []byte
}

// Matches reports whether e satisfies every predicate of s.
func (s Subscription) Matches(e Event) bool {
	for _, p := range s.Preds {
		v, ok := e.Attrs[p.Attr]
		if !ok || !p.Interval.Contains(v) {
			return false
		}
	}
	return true
}

// StorageBytes estimates the in-index footprint of the subscription: node
// header plus per-predicate records. Mirrors SCBR's C structures closely
// enough for memory-occupancy accounting. The header's parent link is the
// one Index.Remove follows, so the link adds nothing to the footprint.
func (s Subscription) StorageBytes() int {
	const perPred = 32 // attr id, two float64 bounds, flags
	return nodeHeaderBytes + perPred*len(s.Preds)
}

// nodeHeaderBytes is the fixed part of an index node's record: id, child
// vector header, parent link, bookkeeping. It is what Index charges when
// only a node's links change.
const nodeHeaderBytes = 64

// ---- Encrypted envelopes (the outside-the-enclave representation) ----

// Envelope is an encrypted, authenticated wrapper carrying either a
// subscription or a publication between clients and the broker. Routers
// and the untrusted network only ever see Envelopes.
type Envelope struct {
	ClientID string
	Kind     string // "sub" | "pub"
	Sealed   []byte
}

// envelope kinds.
const (
	KindSubscription = "sub"
	KindPublication  = "pub"
)

// openEnvelopeWith authenticates and decrypts an envelope with the
// client's session AEAD context.
func openEnvelopeWith(box *cryptbox.Box, env Envelope) ([]byte, error) {
	raw, err := box.Open(env.Sealed, []byte(env.Kind+"|"+env.ClientID))
	if err != nil {
		return nil, ErrBadEnvelope
	}
	return raw, nil
}

// Delivery is an encrypted notification from the broker to a subscriber.
type Delivery struct {
	SubscriberID string
	Sealed       []byte
}
