// Secure content-based routing demo (paper §V-B) on the application
// plane: smart-meter gateways publish encrypted readings onto the event
// bus, an *attested* gateway micro-service — a ReplicaSet whose replicas
// obtained their keys from the KeyBroker against verified quotes — opens
// them inside its enclaves and feeds them into the SCBR broker, which
// routes by content (feeder scope and measurement ranges) to subscribers
// that attested the broker before trusting it with their filters. No
// component of the pipeline bypasses attestation, and the cloud only ever
// sees ciphertext.
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/scbr"
)

// rawReading is one meter sample as the gateway receives it off the bus.
type rawReading struct {
	Feeder  float64 `json:"feeder"`
	Voltage float64 `json:"voltage"`
	Note    string  `json:"note"`
}

func main() {
	// One attestation service anchors everything: the broker node, the
	// gateway replicas, and the key broker all verify against it.
	svc := attest.NewService()

	// Broker platform + attestation.
	p := enclave.NewPlatform(enclave.Config{})
	quoter, err := svc.Provision(p, "broker-node")
	if err != nil {
		log.Fatal(err)
	}
	var signer cryptbox.Digest
	enc, err := p.ECreate(256<<20, signer)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("scbr-broker-v1")); err != nil {
		log.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		log.Fatal(err)
	}
	// One shard keeps both filters in a single containment forest so the
	// nesting diagnostics below are exact; production brokers default to a
	// shard per core (see BrokerConfig.Shards).
	cfg := scbr.DefaultBrokerConfig()
	cfg.Shards = 1
	broker, err := scbr.NewBroker(enc, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Clients attest the broker before trusting it with filters.
	m, _ := enc.Measurement()
	policy := attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}

	operator, err := scbr.Connect(broker, "grid-operator", svc, quoter, policy)
	if err != nil {
		log.Fatal(err)
	}
	maintenance, err := scbr.Connect(broker, "maintenance-team", svc, quoter, policy)
	if err != nil {
		log.Fatal(err)
	}
	gatewaySession, err := scbr.Connect(broker, "meter-gateway", svc, quoter, policy)
	if err != nil {
		log.Fatal(err)
	}

	// The operator wants all low-voltage events anywhere; maintenance
	// only cares about feeder 7.
	anyLowVoltage, _ := scbr.NewSubscription(0, map[string]scbr.Interval{
		"voltage": {Lo: 0, Hi: 0.9 * 230},
	})
	feeder7LowVoltage, _ := scbr.NewSubscription(0, map[string]scbr.Interval{
		"voltage": {Lo: 0, Hi: 0.9 * 230},
		"feeder":  {Lo: 7, Hi: 7},
	})
	if _, err := operator.Subscribe(broker, anyLowVoltage); err != nil {
		log.Fatal(err)
	}
	if _, err := maintenance.Subscribe(broker, feeder7LowVoltage); err != nil {
		log.Fatal(err)
	}
	fmt.Println("index depth:", broker.Index().Depth(), "(feeder-7 filter nests under the general one)")

	// The attested gateway: meters publish sealed readings onto the bus;
	// the gateway's replicas open them inside their enclaves and publish
	// SCBR events. Its keys exist nowhere but the owner and the verified
	// replica enclaves. Workers=1 keeps the shared broker session
	// serialized; the replicas still each run on their own platform.
	bus := eventbus.New()
	kb := attest.NewKeyBroker(svc)
	var appRoot cryptbox.Key
	appRoot[0] = 0x9A
	keys, err := microsvc.NewServiceKeys(appRoot, "grid/gateway", "grid/raw", "grid/acks")
	if err != nil {
		log.Fatal(err)
	}
	kb.Register("grid/gateway",
		attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner("grid/gateway")}}, keys)

	routed := 0
	gateway, err := microsvc.NewReplicaSet(bus, svc, kb, "grid/gateway",
		func(req []byte) ([]byte, error) {
			var r rawReading
			if err := json.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			n, err := gatewaySession.Publish(broker, scbr.Event{
				Attrs:   map[string]float64{"voltage": r.Voltage, "feeder": r.Feeder},
				Payload: []byte(r.Note),
			})
			if err != nil {
				return nil, err
			}
			routed += n
			return nil, nil
		},
		microsvc.ReplicaSetConfig{Replicas: 2, Workers: 1, InTopic: "grid/raw", OutTopic: "grid/acks"})
	if err != nil {
		log.Fatal(err)
	}
	defer gateway.Stop()

	// Meters: publications arrive as sealed bus frames keyed by feeder.
	meters, err := microsvc.NewPlaneClient(bus, "grid/gateway", keys, "grid/raw", "grid/acks")
	if err != nil {
		log.Fatal(err)
	}
	defer meters.Close()
	events := []rawReading{
		{Voltage: 195, Feeder: 7, Note: "sag on feeder 7"},
		{Voltage: 231, Feeder: 3, Note: "nominal feeder 3"},
		{Voltage: 188, Feeder: 3, Note: "sag on feeder 3"},
	}
	reqs := make([]microsvc.PlaneRequest, len(events))
	for i, e := range events {
		body, _ := json.Marshal(e)
		reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("feeder-%02.0f", e.Feeder), Body: body}
	}
	if _, err := meters.SendTenantIDs("", reqs); err != nil {
		log.Fatal(err)
	}
	if _, err := gateway.Step(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway routed %d sealed readings into %d content deliveries\n", len(events), routed)

	opEvents, _ := operator.Receive(broker)
	mtEvents, _ := maintenance.Receive(broker)
	fmt.Printf("operator received %d events (all sags)\n", len(opEvents))
	fmt.Printf("maintenance received %d event(s) (feeder 7 only)\n", len(mtEvents))

	// Load the index with a synthetic filter population and show the
	// containment ablation.
	w := scbr.NewWorkload(scbr.DefaultWorkload(7))
	for i := 0; i < 20000; i++ {
		s := w.NextSubscription()
		if _, err := gatewaySession.Subscribe(broker, s); err != nil {
			log.Fatal(err)
		}
	}
	probe := w.NextEvent()
	before := broker.Index().Checks()
	broker.Index().Match(probe)
	pruned := broker.Index().Checks() - before
	before = broker.Index().Checks()
	broker.Index().MatchNaive(probe)
	naive := broker.Index().Checks() - before
	fmt.Printf("matching over %d filters: containment forest %d comparisons vs naive %d (%.1fx fewer)\n",
		broker.Index().Count(), pruned, naive, float64(naive)/float64(pruned))
	gwTotals := gateway.Totals()
	fmt.Printf("broker enclave: %v, %d EPC faults; gateway replicas: %d cycles across %d enclaves\n",
		enc.Memory().Cycles(), enc.Memory().Faults(), gwTotals.SerialCycles, gwTotals.Live)
}
