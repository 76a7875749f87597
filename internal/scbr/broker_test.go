package scbr

import (
	"bytes"
	"crypto/ecdh"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/codec/codectest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

func brokerEnclave(t testing.TB) (*enclave.Platform, *enclave.Enclave) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	signer[0] = 0x5C
	e, err := p.ECreate(64<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EAdd([]byte("scbr-broker-v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.EInit(); err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestBrokerEndToEnd(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	subCli, err := Connect(b, "subscriber-1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	pubCli, err := Connect(b, "publisher-1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}

	s, _ := NewSubscription(0, map[string]Interval{"voltage": iv(220, 240)})
	if _, err := subCli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	n, err := pubCli.Publish(b, Event{
		Attrs:   map[string]float64{"voltage": 231},
		Payload: []byte("feeder-7 reading"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered to %d subscribers, want 1", n)
	}
	events, err := subCli.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].Payload) != "feeder-7 reading" {
		t.Fatalf("received %v", events)
	}

	// Non-matching publication delivers nothing.
	n, err = pubCli.Publish(b, Event{Attrs: map[string]float64{"voltage": 190}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("non-matching event delivered to %d", n)
	}
}

func TestBrokerRejectsUnknownClient(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	env := Envelope{ClientID: "stranger", Kind: KindPublication, Sealed: []byte("x")}
	if _, err := b.Publish(env); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
	if _, err := b.Subscribe(env); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
}

func TestBrokerRejectsForgedEnvelope(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	if _, err := Connect(b, "c1", nil, nil, attest.Policy{}); err != nil {
		t.Fatal(err)
	}
	// An attacker who knows the client ID but not the session key.
	sealed, err := testClient(t, "c1", cryptbox.Key{0xFF}).SealEventBytes(Event{Attrs: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	forged := Envelope{ClientID: "c1", Kind: KindPublication, Sealed: sealed}
	if _, err := b.Publish(forged); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("err = %v, want ErrBadEnvelope", err)
	}
}

// TestBrokerRejectsJSONEnvelopes: the binary codec is the only envelope
// plaintext. A JSON subscription and a JSON publication, sealed under the
// sender's own session key and AAD, authenticate but are refused with an
// error: nothing registers, nothing is delivered, nothing panics.
func TestBrokerRejectsJSONEnvelopes(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	subscriber, _ := Connect(b, "sub", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	s := sub(t, 0, map[string]Interval{"v": iv(0, 10)})
	if _, err := subscriber.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	sealJSON := func(c *Client, kind string, v any) Envelope {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := c.box.Seal(raw, []byte(kind+"|"+c.ID))
		if err != nil {
			t.Fatal(err)
		}
		return Envelope{ClientID: c.ID, Kind: kind, Sealed: sealed}
	}
	if id, err := b.Subscribe(sealJSON(subscriber, KindSubscription, s)); err == nil {
		t.Fatalf("JSON subscription accepted as id %d", id)
	}
	if b.Index().Count() != 1 {
		t.Fatalf("index holds %d subscriptions, want 1", b.Index().Count())
	}
	e := Event{Attrs: map[string]float64{"v": 5}, Payload: []byte("json")}
	if n, err := b.Publish(sealJSON(pub, KindPublication, e)); err == nil {
		t.Fatalf("JSON publication accepted, %d deliveries", n)
	}
	if q := b.Drain(subscriber.ID); len(q) != 0 {
		t.Fatalf("%d deliveries queued from a JSON publication", len(q))
	}
}

func TestEnvelopesOpaqueOnWire(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	s, _ := NewSubscription(0, map[string]Interval{"secret-attr": iv(1, 2)})
	sealed, err := cli.SealSubscriptionBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, []byte("secret-attr")) {
		t.Fatal("subscription filter readable on the wire")
	}
}

func TestDeliveriesEncryptedPerSubscriber(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	alice, _ := Connect(b, "alice", nil, nil, attest.Policy{})
	bob, _ := Connect(b, "bob", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})

	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := alice.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}, Payload: []byte("for alice")}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot decrypt Alice's queued delivery.
	stolen := b.Drain("alice")
	if len(stolen) != 1 {
		t.Fatalf("queued %d deliveries", len(stolen))
	}
	if _, err := bob.OpenDeliverySealed(stolen[0].Sealed); err == nil {
		t.Fatal("bob decrypted alice's delivery")
	}
	if _, err := alice.OpenDeliverySealed(stolen[0].Sealed); err != nil {
		t.Fatalf("alice cannot decrypt her own delivery: %v", err)
	}
}

func TestBrokerAttestationGate(t *testing.T) {
	p, enc := brokerEnclave(t)
	svc := attest.NewService()
	quoter, err := svc.Provision(p, "broker-node")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	m, _ := enc.Measurement()

	good := attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}
	if _, err := Connect(b, "c1", svc, quoter, good); err != nil {
		t.Fatalf("attested connect failed: %v", err)
	}
	var wrong cryptbox.Digest
	wrong[0] = 1
	bad := attest.Policy{AllowedMREnclave: []cryptbox.Digest{wrong}}
	if _, err := Connect(b, "c2", svc, quoter, bad); err == nil {
		t.Fatal("client connected to a broker failing its policy")
	}
}

func TestBrokerHandshakeBadKey(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	if _, err := b.Handshake("c1", []byte("short")); err == nil {
		t.Fatal("malformed client key accepted")
	}
}

func TestBrokerOneDeliveryPerSubscriberManyFilters(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	for i := 0; i < 5; i++ {
		s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, float64(10+i))})
		if _, err := cli.Subscribe(b, s); err != nil {
			t.Fatal(err)
		}
	}
	n, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d copies to one subscriber with 5 matching filters", n)
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	subID, err := cli.Subscribe(b, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("c1", subID); err != nil {
		t.Fatal(err)
	}
	n, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("delivered to %d after unsubscribe", n)
	}
}

// TestBrokerSubscribeValidatesFilter: a wire client can seal any decoded
// filter, so Subscribe must refuse what NewSubscription refuses. A filter
// with no predicate covers every other one and would become the root every
// later registration descends through.
func TestBrokerSubscribeValidatesFilter(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Subscribe(b, Subscription{}); !errors.Is(err, ErrEmptyFilter) {
		t.Fatalf("zero-predicate filter: err = %v, want ErrEmptyFilter", err)
	}
	nan := math.NaN()
	for _, bad := range []Interval{iv(5, 2), iv(nan, 1), iv(0, nan), iv(nan, nan)} {
		s := Subscription{Preds: []Predicate{{Attr: "a", Interval: iv(0, 1)}, {Attr: "b", Interval: bad}}}
		if _, err := cli.Subscribe(b, s); err == nil {
			t.Fatalf("filter with interval %v accepted", bad)
		}
	}
	if n := b.Index().Count(); n != 0 {
		t.Fatalf("%d invalid filters stored", n)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 1)})
	if id, err := cli.Subscribe(b, s); err != nil || id != 1 {
		t.Fatalf("valid filter after refusals: id %d, err %v; want id 1", id, err)
	}
}

// TestBrokerInternTableBounded churns 10,000 filters through a broker, each
// naming a fresh attribute: equivalent filters that differ only in a
// full-range fresh attribute (so bucket members join, and owners hand their
// node over when they leave), filters those cover, and filters on nothing
// but their fresh attribute. Every shard's intern table must hold exactly
// the attributes of its stored filters throughout, and nothing once every
// filter is gone.
func TestBrokerInternTableBounded(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, BrokerConfig{PayloadBytes: 64, CheckCost: 1, Shards: 2, ShardBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	const total, window = 10000, 64
	var live []uint64
	for i := 0; i < total; i++ {
		fresh := "fresh" + itoa(i)
		var preds []Predicate
		switch i % 4 {
		case 0, 1: // one equivalence class: buckets and handovers
			preds = []Predicate{{Attr: fresh, Interval: FullRange()}, {Attr: "shared", Interval: iv(0, 10)}}
		case 2: // covered by that class
			preds = []Predicate{{Attr: fresh, Interval: iv(0, 1)}, {Attr: "shared", Interval: iv(2, 3)}}
		case 3: // a root of its own
			preds = []Predicate{{Attr: fresh, Interval: iv(0, 1)}}
		}
		s := Subscription{Preds: preds}
		s.Normalize()
		id, err := cli.Subscribe(b, s)
		if err != nil {
			t.Fatal(err)
		}
		if live = append(live, id); len(live) > window {
			if err := b.Unsubscribe(cli.ID, live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
		if i%1000 == 999 {
			for k := range b.Index().Shards() {
				checkAttrs(t, b.Index().At(k).V)
			}
		}
	}
	for _, id := range live {
		if err := b.Unsubscribe(cli.ID, id); err != nil {
			t.Fatal(err)
		}
	}
	for k := range b.Index().Shards() {
		if n := len(b.Index().At(k).V.attrs.ids); n != 0 {
			t.Fatalf("shard %d: %d names interned with no filter stored", k, n)
		}
	}
}

func TestBrokerUnsubscribeOwnershipEnforced(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	alice, _ := Connect(b, "alice", nil, nil, attest.Policy{})
	if _, err := Connect(b, "mallory", nil, nil, attest.Policy{}); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	subID, _ := alice.Subscribe(b, s)
	if err := b.Unsubscribe("mallory", subID); err == nil {
		t.Fatal("foreign client removed alice's subscription")
	}
	if err := b.Unsubscribe("alice", 9999); err == nil {
		t.Fatal("unknown subscription removed")
	}
	if err := b.Unsubscribe("stranger", subID); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
}

func TestBrokerChargesEnclaveTransitions(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	before := enc.Memory().Breakdown()[enclave.CauseTransition]
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 1)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	after := enc.Memory().Breakdown()[enclave.CauseTransition]
	if after <= before {
		t.Fatal("subscription request did not charge an enclave entry")
	}
}

func TestHandshakeCannotDisplaceLiveSession(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	victim, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := victim.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	// An attacker who knows only the client ID tries a fresh handshake.
	h, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handshake("c1", h.Public()); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("takeover handshake: err = %v, want ErrSessionExists", err)
	}

	// The victim's session is intact: deliveries still seal to its key.
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}, Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	events, err := victim.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("victim received %d events, want 1", len(events))
	}
}

func TestRehandshakeRotatesSessionWithProof(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	// A proof sealed under the wrong key is rejected.
	forged, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	wrongBox, _ := cryptbox.NewBox(cryptbox.Key{0xFF})
	badProof, _ := wrongBox.Seal(forged.Public(), aadRehandshake("c1"))
	if _, err := b.Rehandshake("c1", badProof); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("forged proof: err = %v, want ErrBadEnvelope", err)
	}

	// The legitimate holder rotates and keeps receiving.
	h, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	proof, err := cli.SealRehandshake(h)
	if err != nil {
		t.Fatal(err)
	}
	brokerPub, err := b.Rehandshake("c1", proof)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := h.Finish(brokerPub)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 3}, Payload: []byte("post-rotate")}); err != nil {
		t.Fatal(err)
	}
	events, err := rotated.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].Payload) != "post-rotate" {
		t.Fatalf("rotated client received %v", events)
	}
	// The pre-rotation key no longer opens new deliveries.
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 3}, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	for _, d := range b.Drain("c1") {
		if _, err := cli.OpenDeliverySealed(d.Sealed); err == nil {
			t.Fatal("old session key still opens post-rotation deliveries")
		}
	}
}

func TestDrainSealedRejectsReplayAndForgery(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("one")}); err != nil {
		t.Fatal(err)
	}

	// No proof at all.
	if _, err := b.DrainSealed("c1", []byte("junk")); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("garbage token: err = %v, want ErrBadEnvelope", err)
	}
	// A valid token drains once...
	token, err := cli.SealPollToken()
	if err != nil {
		t.Fatal(err)
	}
	dels, err := b.DrainSealed("c1", token)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 {
		t.Fatalf("drained %d deliveries, want 1", len(dels))
	}
	// ...and a replay of the same bytes is rejected even with new mail.
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 2}, Payload: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainSealed("c1", token); !errors.Is(err, ErrReplayedToken) {
		t.Fatalf("replayed token: err = %v, want ErrReplayedToken", err)
	}
	// A fresh token still works; the pending delivery survived the replay.
	token2, err := cli.SealPollToken()
	if err != nil {
		t.Fatal(err)
	}
	dels, err = b.DrainSealed("c1", token2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 {
		t.Fatalf("post-replay drain got %d deliveries, want 1", len(dels))
	}
	if _, err := b.DrainSealed("unknown", token2); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: err = %v, want ErrUnknownClient", err)
	}
}

// sessionFixture is a broker with one live client session, for the
// opener fuzzers.
func sessionFixture(f *testing.F) (*Broker, *Client, *session) {
	_, enc := brokerEnclave(f)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		f.Fatal(err)
	}
	return b, cli, b.sessions[cli.ID]
}

// FuzzOpenPollToken seals fuzzer-chosen plaintext as a poll token under a
// live session. Under the shared decode property, a token is accepted only
// if it is 8 bytes and its counter is above the session's replay horizon;
// every other token errors with ErrBadEnvelope or ErrReplayedToken.
func FuzzOpenPollToken(f *testing.F) {
	const horizon = 100
	for _, n := range []uint64{horizon + 1, horizon, math.MaxUint64} {
		f.Add(binary.BigEndian.AppendUint64(nil, n))
	}
	f.Add(make([]byte, 7))
	f.Add([]byte{})
	b, cli, sess := sessionFixture(f)
	f.Fuzz(func(t *testing.T, pt []byte) {
		sess.pollSeq.Store(horizon)
		codectest.Check(t, pt, false, func(pt []byte) ([]byte, int, int, error) {
			token, _ := cli.box.Seal(pt, aadPoll(cli.ID))
			cur := sess.pollSeq.Load()
			_, err := b.DrainSealed(cli.ID, token)
			if want := len(pt) == 8 && binary.BigEndian.Uint64(pt) > cur; (err == nil) != want {
				t.Fatalf("token %x at horizon %d: err = %v", pt, cur, err)
			}
			return binary.BigEndian.AppendUint64(nil, sess.pollSeq.Load()), 0, len(pt), err
		}, ErrBadEnvelope, ErrReplayedToken)
	})
}

// FuzzRehandshake seals fuzzer-chosen plaintext as a rehandshake proof
// under a live session, restored before each attempt. Under the shared
// decode property, a proof is accepted only if it carries a valid X25519
// public key (32 bytes, not a low-order point); every other proof errors
// with ErrBadEnvelope.
func FuzzRehandshake(f *testing.F) {
	h, _ := BeginHandshake("c1")
	f.Add(h.Public())
	f.Add(make([]byte, 32)) // the all-zero low-order point
	f.Add(h.Public()[:31])
	f.Add([]byte{})
	b, cli, live := sessionFixture(f)
	valid := func(pub []byte) bool {
		k, err := ecdh.X25519().NewPublicKey(pub)
		if err == nil {
			_, err = h.priv.ECDH(k)
		}
		return err == nil
	}
	f.Fuzz(func(t *testing.T, pub []byte) {
		codectest.Check(t, pub, false, func(pub []byte) ([]byte, int, int, error) {
			b.mu.Lock()
			b.sessions[cli.ID] = live
			b.mu.Unlock()
			proof, _ := cli.box.Seal(pub, aadRehandshake(cli.ID))
			_, err := b.Rehandshake(cli.ID, proof)
			if (err == nil) != valid(pub) {
				t.Fatalf("key %x: err = %v", pub, err)
			}
			return pub, 0, len(pub), err
		}, ErrBadEnvelope)
	})
}
