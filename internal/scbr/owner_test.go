package scbr

import (
	"fmt"
	"math/rand"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/sim"
)

// ownerRef is the reference model of the broker's ownership state: the
// owner of every live subscription ID as a plain map, plus the filters, so
// it can name each publication's recipients on its own.
type ownerRef struct {
	owners map[uint64]string
	subs   map[uint64]Subscription
}

// unsubscribe applies a removal to the model and returns the error the
// broker must report for it.
func (m *ownerRef) unsubscribe(clientID string, subID uint64) error {
	owner, ok := m.owners[subID]
	if !ok {
		return fmt.Errorf("scbr: unknown subscription %d", subID)
	}
	if owner != clientID {
		return fmt.Errorf("scbr: subscription %d not owned by %s", subID, clientID)
	}
	delete(m.owners, subID)
	delete(m.subs, subID)
	return nil
}

// recipients returns the clients owning at least one filter e matches.
func (m *ownerRef) recipients(e Event) map[string]bool {
	out := make(map[string]bool)
	for id, s := range m.subs {
		if s.Matches(e) {
			out[m.owners[id]] = true
		}
	}
	return out
}

// rotateSession re-keys c's live session through Rehandshake and returns
// the client end of the new one.
func rotateSession(b *Broker, c *Client) (*Client, error) {
	h, err := BeginHandshake(c.ID)
	if err != nil {
		return nil, err
	}
	proof, err := c.SealRehandshake(h)
	if err != nil {
		return nil, err
	}
	brokerPub, err := b.Rehandshake(c.ID, proof)
	if err != nil {
		return nil, err
	}
	return h.Finish(brokerPub)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// ownerScriptFilter draws a filter over "a", sometimes also over "b".
func ownerScriptFilter(r *rand.Rand) map[string]Interval {
	lo := r.Float64() * 100
	preds := map[string]Interval{"a": iv(lo, lo+r.Float64()*40)}
	if r.Intn(3) == 0 {
		lo := r.Float64() * 10
		preds["b"] = iv(lo, lo+r.Float64()*5)
	}
	return preds
}

// TestPropBrokerOwnerTableMatchesReference drives a seeded script of
// Subscribe, Unsubscribe (of the caller's own IDs, other clients' IDs,
// removed and never-issued IDs), Rehandshake and Publish over 24 clients,
// and checks the broker against ownerRef after every step: each publish
// reaches exactly the reference's recipients, under their current session
// keys, and each Unsubscribe reports the reference's error. The script
// issues IDs across several owner pages; once every ID is unsubscribed the
// owner table must hold no page.
func TestPropBrokerOwnerTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkOwnerScript(t, seed, 2800)
		})
	}
}

func checkOwnerScript(t *testing.T, seed int64, steps int) {
	r := sim.NewRand(seed)
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, BrokerConfig{PayloadBytes: 64, CheckCost: 100, Shards: 2, ShardBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const nClients = 24
	clients := make([]*Client, nClients)
	for i := range clients {
		if clients[i], err = Connect(b, fmt.Sprintf("client-%02d", i), nil, nil, attest.Policy{}); err != nil {
			t.Fatal(err)
		}
	}
	ref := &ownerRef{owners: make(map[uint64]string), subs: make(map[uint64]Subscription)}
	var issued []uint64 // every ID the broker returned, live or not

	for step := 0; step < steps; step++ {
		c := clients[r.Intn(nClients)]
		switch k := r.Intn(100); {
		case k < 45:
			s, err := NewSubscription(0, ownerScriptFilter(r))
			if err != nil {
				t.Fatal(err)
			}
			id, err := c.Subscribe(b, s)
			if err != nil {
				t.Fatalf("step %d: subscribe: %v", step, err)
			}
			s.ID = id
			ref.owners[id], ref.subs[id] = c.ID, s
			issued = append(issued, id)
		case k < 72:
			var id uint64
			switch {
			case len(issued) == 0 || r.Intn(8) == 0:
				id = uint64(len(issued)) + 1 + uint64(r.Intn(600)) // never issued
			case r.Intn(2) == 0:
				// A live ID of the caller's when it has one: a success.
				start := r.Intn(len(issued))
				id = issued[start]
				for j := range issued {
					if cand := issued[(start+j)%len(issued)]; ref.owners[cand] == c.ID {
						id = cand
						break
					}
				}
			default:
				id = issued[r.Intn(len(issued))] // anyone's, live or removed
			}
			want := ref.unsubscribe(c.ID, id)
			if got := b.Unsubscribe(c.ID, id); errText(got) != errText(want) {
				t.Fatalf("step %d: Unsubscribe(%s, %d) = %v, reference %v", step, c.ID, id, got, want)
			}
		case k < 76:
			i := r.Intn(nClients)
			if clients[i], err = rotateSession(b, clients[i]); err != nil {
				t.Fatalf("step %d: rehandshake: %v", step, err)
			}
		default:
			e := Event{Attrs: map[string]float64{"a": r.Float64() * 120}, Payload: []byte{byte(step)}}
			if r.Intn(2) == 0 {
				e.Attrs["b"] = r.Float64() * 12
			}
			want := ref.recipients(e)
			n, err := c.Publish(b, e)
			if err != nil {
				t.Fatalf("step %d: publish: %v", step, err)
			}
			if n != len(want) {
				t.Fatalf("step %d: delivered %d, reference recipients %d", step, n, len(want))
			}
			for _, rc := range clients {
				dels := b.Drain(rc.ID)
				wantN := 0
				if want[rc.ID] {
					wantN = 1
				}
				if len(dels) != wantN {
					t.Fatalf("step %d: %s got %d deliveries, reference recipient: %v", step, rc.ID, len(dels), want[rc.ID])
				}
				for _, d := range dels {
					if _, err := rc.OpenDeliverySealed(d.Sealed); err != nil {
						t.Fatalf("step %d: %s cannot open its delivery: %v", step, rc.ID, err)
					}
				}
			}
		}
	}
	if pages := issued[len(issued)-1]/ownerPageIDs + 1; pages < 3 {
		t.Fatalf("script issued IDs over %d owner pages, want at least 3", pages)
	}

	for id, owner := range ref.owners {
		if err := b.Unsubscribe(owner, id); err != nil {
			t.Fatalf("final Unsubscribe(%s, %d): %v", owner, id, err)
		}
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.owners) != 0 {
		t.Fatalf("%d owner pages remain after every ID was unsubscribed", len(b.owners))
	}
	if len(b.clients) > nClients+1 {
		t.Fatalf("%d client ordinals for %d clients", len(b.clients)-1, nClients)
	}
}
