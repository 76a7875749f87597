// Overload: the plane under a tenant spike, twice. First ungoverned —
// a greedy tenant floods the request topic and the backlog grows without
// bound. Then with an AdmissionConfig — per-tenant token buckets and
// weighted-fair dequeue keep the polite tenant's share, the greedy
// tenant's excess is shed at arrival with a sealed retry-after reply,
// and the client's exponential-backoff retry drains the sheds once the
// spike passes. Everything is simulated time, so both runs are exactly
// reproducible.
package main

import (
	"fmt"
	"log"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/sim"
)

const service = "plane/demo"

// run drives 30 ticks of two-tenant load — "polite" at a steady 20
// req/tick, "greedy" spiking to 200 req/tick for ticks 10-19 — against a
// two-replica plane, and reports the final backlog and per-tenant shed.
func run(adm *microsvc.AdmissionConfig) (backlog int, stats microsvc.AdmissionSnapshot) {
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)

	var root cryptbox.Key
	root[0] = 0xD0
	keys, err := microsvc.NewServiceKeys(root, service, "d/req", "d/resp")
	if err != nil {
		log.Fatal(err)
	}
	kb.Register(service,
		attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(service)}}, keys)

	rs, err := microsvc.NewReplicaSet(bus, svc, kb, service,
		func(req []byte) ([]byte, error) { return []byte("ok"), nil },
		microsvc.ReplicaSetConfig{
			Replicas: 2, InTopic: "d/req", OutTopic: "d/resp",
			TickBudget:    sim.MillisToCycles(1),
			RequestCycles: 60_000,
			Admission:     adm,
		})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Stop()
	client, err := microsvc.NewPlaneClient(bus, service, keys, "d/req", "d/resp")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.EnableRetry(microsvc.RetryPolicy{MaxAttempts: 4})

	for t := 1; t <= 30; t++ {
		now := float64(t)
		if _, err := client.DueRetries(now); err != nil {
			log.Fatal(err)
		}
		greedy := 20
		if t >= 10 && t < 20 {
			greedy = 200
		}
		send := func(tenant string, n int) {
			batch := make([]microsvc.PlaneRequest, n)
			for i := range batch {
				batch[i] = microsvc.PlaneRequest{
					Key:  fmt.Sprintf("%s-%02d", tenant, i%16),
					Body: []byte("payload"),
				}
			}
			if _, err := client.SendTenantIDs(tenant, batch); err != nil {
				log.Fatal(err)
			}
		}
		send("polite", 20)
		send("greedy", greedy)
		if _, err := rs.Step(); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Poll(now); err != nil {
			log.Fatal(err)
		}
	}
	return rs.Backlog(), rs.AdmissionStats()
}

func main() {
	backlog, _ := run(nil)
	fmt.Printf("ungoverned:  backlog after spike = %d (grows with the spike)\n", backlog)

	backlog, stats := run(&microsvc.AdmissionConfig{
		Default: microsvc.TenantPolicy{Weight: 1, Rate: 60, Burst: 120, MaxQueue: 64},
		Tenants: map[string]microsvc.TenantPolicy{
			"polite": {Weight: 3, Rate: 30, Burst: 60, MaxQueue: 64},
			"greedy": {Weight: 1, Rate: 60, Burst: 90, MaxQueue: 48},
		},
		MaxGlobalQueue: 128,
		TickMillis:     1,
	})
	fmt.Printf("admission:   backlog after spike = %d\n", backlog)
	for _, tenant := range []string{"polite", "greedy"} {
		ts := stats.ByTenant[tenant]
		fmt.Printf("  %-7s admitted=%-4d dispatched=%-4d shed=%d (sheds count retried re-arrivals)\n",
			tenant, ts.Admitted, ts.Dispatched, ts.Shed)
	}
}
