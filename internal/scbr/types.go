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
		if !iv.Valid() {
			return Subscription{}, fmt.Errorf("scbr: empty interval on %q", attr)
		}
		s.Preds = append(s.Preds, Predicate{Attr: attr, Interval: iv})
	}
	if len(s.Preds) == 0 {
		return Subscription{}, ErrEmptyFilter
	}
	s.Normalize()
	return s, nil
}

// Normalize sorts predicates by attribute, establishing canonical form.
func (s *Subscription) Normalize() {
	sort.Slice(s.Preds, func(i, j int) bool { return s.Preds[i].Attr < s.Preds[j].Attr })
}

// get returns the interval constraining attr, if any.
func (s Subscription) get(attr string) (Interval, bool) {
	i := sort.Search(len(s.Preds), func(i int) bool { return s.Preds[i].Attr >= attr })
	if i < len(s.Preds) && s.Preds[i].Attr == attr {
		return s.Preds[i].Interval, true
	}
	return Interval{}, false
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

// attrVal is one attribute of an eventView.
type attrVal struct {
	attr string
	val  float64
}

// eventView is an event's attributes in sorted order: the matcher-internal
// representation that lets a filter check run as a linear merge against the
// (equally sorted) predicate list instead of one map lookup per predicate.
type eventView []attrVal

// viewOf flattens an event's attribute map into sorted form. Built once
// per matched event, amortized over every node the traversal visits.
func viewOf(e Event) eventView {
	ev := make(eventView, 0, len(e.Attrs))
	for a, v := range e.Attrs {
		ev = append(ev, attrVal{attr: a, val: v})
	}
	sort.Slice(ev, func(i, j int) bool { return ev[i].attr < ev[j].attr })
	return ev
}

// matchesView is Matches against the sorted view; results are identical.
func (s Subscription) matchesView(ev eventView) bool {
	j := 0
	for i := range s.Preds {
		p := &s.Preds[i]
		for j < len(ev) && ev[j].attr < p.Attr {
			j++
		}
		if j >= len(ev) || ev[j].attr != p.Attr || !p.Interval.Contains(ev[j].val) {
			return false
		}
	}
	return true
}

// Covers reports whether s is at least as general as other: every event
// matching other also matches s. For conjunctive interval filters this
// holds iff for every predicate of s, other constrains the same attribute
// with an interval contained in s's. Both predicate lists are in canonical
// sorted order, so the check is a single linear merge.
func (s Subscription) Covers(other Subscription) bool {
	j := 0
	for i := range s.Preds {
		p := &s.Preds[i]
		for j < len(other.Preds) && other.Preds[j].Attr < p.Attr {
			j++
		}
		if j < len(other.Preds) && other.Preds[j].Attr == p.Attr {
			if !p.Interval.Covers(other.Preds[j].Interval) {
				return false
			}
			continue
		}
		// other is unconstrained on this attribute: it admits values
		// outside p unless p admits everything.
		if !p.Interval.Covers(FullRange()) {
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
