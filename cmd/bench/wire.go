package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/scbr"
	"securecloud/internal/stats"
	"securecloud/internal/wire"
)

const (
	wireService = "plane/wire-bench"
	// wireAuthToken gates the bench server's /scbr/* and /plane/* surface so
	// the measured path is the secured one (bearer check on every request).
	wireAuthToken = "wire-bench-token"
	// wireTicks is the warmup phase length; inject is 2×, drain 3×.
	wireTicks = 8
	// The plane workload: wireClients clients, client i sending as tenant
	// "t<i>" from its own seeded generator, with payloads of
	// wirePayloadMin..wirePayloadMax bytes over wireKeys routing keys.
	wireClients    = 4
	wireSeed       = 1109
	wireKeys       = 32
	wirePayloadMin = 48
	wirePayloadMax = 768
	// wireSizeBuckets counts payload sizes on the 16 B → 64 KiB doubling
	// ladder (13 bounds) plus an overflow bucket.
	wireSizeBuckets = 14
)

// wireStack is one fully built serving stack: attested plane + broker
// behind one wire server on a loopback listener.
type wireStack struct {
	rs     *microsvc.ReplicaSet
	gw     *wire.PlaneGateway
	keys   attest.ServiceKeys
	svc    *attest.Service
	policy attest.Policy
	srv    *http.Server
	url    string
	// hc carries every request of the run on its own keep-alive pool,
	// closed with the stack.
	hc *http.Client
}

func buildWireStack() (s *wireStack, err error) {
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x9E
	keys, err := microsvc.NewServiceKeys(root, wireService, "wire/req", "wire/resp")
	if err != nil {
		return nil, err
	}
	kb.Register(wireService, attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(wireService)}}, keys)
	rs, err := microsvc.NewReplicaSet(bus, svc, kb, wireService,
		func(req []byte) ([]byte, error) { return append([]byte("ok:"), req...), nil },
		microsvc.ReplicaSetConfig{
			Replicas: 2, InTopic: "wire/req", OutTopic: "wire/resp",
			Admission: &microsvc.AdmissionConfig{
				// Rate 2/tick with a 4-deep queue per tenant: the warmup
				// and recover phases (1 req/tick) sail through, the inject
				// phase (4 req/tick) saturates the bucket and sheds — the
				// deterministic overload the histogram should show.
				Default:         microsvc.TenantPolicy{Weight: 1, Rate: 2, Burst: 2, MaxQueue: 4},
				DispatchPerStep: 64,
			},
		})
	if err != nil {
		return nil, err
	}
	s = &wireStack{
		rs: rs, keys: keys, svc: svc,
		hc: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
	}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if s.gw, err = wire.NewPlaneGateway(bus, wireService, keys, "wire/req", "wire/resp"); err != nil {
		return s, err
	}

	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	signer[0] = 0x5C
	s.policy = attest.Policy{AllowedMRSigner: []cryptbox.Digest{signer}}
	e, err := p.ECreate(64<<20, signer)
	if err != nil {
		return s, err
	}
	if _, err = e.EAdd([]byte("scbr-broker-v1")); err != nil {
		return s, err
	}
	if err = e.EInit(); err != nil {
		return s, err
	}
	broker, err := scbr.NewBroker(e, scbr.DefaultBrokerConfig())
	if err != nil {
		return s, err
	}
	quoter, err := svc.Provision(p, "wire-bench-platform")
	if err != nil {
		return s, err
	}

	ws := wire.NewServer(wire.Config{
		Broker: broker, Quoter: quoter, AuthToken: wireAuthToken,
		Sources: []stats.Source{rs},
	})
	ws.RegisterPlane(wireService, s.gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.srv = &http.Server{Handler: ws.Handler()}
	s.url = "http://" + ln.Addr().String()
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *wireStack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	s.hc.CloseIdleConnections()
	s.rs.Stop()
}

// planeTransport is one client's HTTP hop to the stack's plane.
func (s *wireStack) planeTransport() *wire.PlaneTransport {
	return wire.NewPlaneTransport(s.url, wireService, s.hc).WithAuth(wireAuthToken)
}

// wireLoad drives the closed-loop plane workload through clients against
// rs and returns its deterministic counters. Each tick every client, in
// client order, sends its phase's share of seeded requests, then rs steps
// once, then every client polls: one arrival order per tick. After the
// phases, drain ticks step and poll with no sends. A client's Poll fails
// on a reply to a request of its own that is not outstanding — one never
// sent, or already answered — so a duplicating hop fails the run instead
// of inflating plane_served, and each reply answers exactly one sent
// request. plane_lost counts the requests still unanswered at the end.
func wireLoad(rs *microsvc.ReplicaSet, clients []*microsvc.PlaneClient) (map[string]float64, error) {
	rngs := make([]*rand.Rand, len(clients))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(wireSeed + int64(i)*7919))
	}
	det := make(map[string]float64)
	var sent, served, shed, bytesSent uint64
	var sizes [wireSizeBuckets]uint64
	stepAndPoll := func() error {
		if _, err := rs.Step(); err != nil {
			return fmt.Errorf("wire load: step: %w", err)
		}
		for c, pc := range clients {
			reps, err := pc.Poll(0)
			if err != nil {
				return fmt.Errorf("wire load: poll client %d: %w", c, err)
			}
			for _, rep := range reps {
				if rep.Shed {
					shed++
				} else {
					served++
				}
			}
		}
		return nil
	}

	for _, ph := range []struct {
		name             string
		ticks, perClient int
	}{
		{"warmup", wireTicks, 1},
		{"inject", 2 * wireTicks, 4},
		{"recover", wireTicks, 1},
	} {
		for tick := 0; tick < ph.ticks; tick++ {
			for c, pc := range clients {
				rng := rngs[c]
				reqs := make([]microsvc.PlaneRequest, ph.perClient)
				for i := range reqs {
					size := wirePayloadMin + rng.Intn(wirePayloadMax-wirePayloadMin+1)
					body := make([]byte, size)
					for j := range body {
						body[j] = byte(rng.Intn(256))
					}
					reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("k%04d", rng.Intn(wireKeys)), Body: body}
					b := 0
					for b < wireSizeBuckets-1 && 16<<b < size {
						b++
					}
					sizes[b]++
					bytesSent += uint64(size)
				}
				if _, err := pc.SendTenantIDs(fmt.Sprintf("t%d", c), reqs); err != nil {
					return nil, fmt.Errorf("wire load: send client %d: %w", c, err)
				}
				sent += uint64(len(reqs))
				det["phase_"+ph.name] += float64(len(reqs))
			}
			if err := stepAndPoll(); err != nil {
				return nil, err
			}
		}
	}
	for tick := 0; tick < 3*wireTicks; tick++ {
		if err := stepAndPoll(); err != nil {
			return nil, err
		}
	}

	det["plane_sent"] = float64(sent)
	det["plane_served"] = float64(served)
	det["plane_shed"] = float64(shed)
	det["plane_lost"] = float64(sent - served - shed)
	det["bytes_sent"] = float64(bytesSent)
	for b, n := range sizes {
		det[fmt.Sprintf("sizehist_b%02d", b)] = float64(n)
	}
	return det, nil
}

// wireRun builds a fresh stack, replays the whole seeded workload over
// HTTP — the closed-loop plane load through warmup/inject/recover, then
// SCBR subscribe/publish/poll through the same server — and returns the
// deterministic counters.
func wireRun() (map[string]float64, error) {
	s, err := buildWireStack()
	if err != nil {
		return nil, err
	}
	defer s.close()

	clients := make([]*microsvc.PlaneClient, wireClients)
	for c := range clients {
		pc, err := microsvc.NewPlaneClientTransport(wireService, s.keys.Request, s.planeTransport())
		if err != nil {
			return nil, err
		}
		defer pc.Close()
		clients[c] = pc
	}
	det, err := wireLoad(s.rs, clients)
	if err != nil {
		return nil, err
	}

	// SCBR over the same server: six subscribers on adjacent price bands,
	// one publisher sweeping the range — every delivery count is a pure
	// function of the band layout. Every dial attests the broker enclave
	// against the bench's signer policy before handing over its filters,
	// so the measured path includes the wire attestation round trip.
	dialOpts := wire.SCBRDialOpts{Auth: wireAuthToken, Service: s.svc, Policy: s.policy}
	sub := make([]*wire.SCBRClient, 6)
	var delivered, polled int
	for i := range sub {
		sc, err := wire.DialSCBROpts(s.url, fmt.Sprintf("sub-%d", i), s.hc, dialOpts)
		if err != nil {
			return nil, err
		}
		if _, err := sc.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
			{Attr: "price", Interval: scbr.Interval{Lo: float64(i * 10), Hi: float64(i*10 + 14)}},
		}}); err != nil {
			return nil, err
		}
		sub[i] = sc
	}
	pubc, err := wire.DialSCBROpts(s.url, "pub-0", s.hc, dialOpts)
	if err != nil {
		return nil, err
	}
	for v := 0; v < 60; v += 3 {
		n, err := pubc.Publish(scbr.Event{Attrs: map[string]float64{"price": float64(v)}, Payload: []byte{byte(v)}})
		if err != nil {
			return nil, err
		}
		delivered += n
	}
	for _, sc := range sub {
		evs, err := sc.Poll()
		if err != nil {
			return nil, err
		}
		polled += len(evs)
	}

	det["scbr_delivered"] = float64(delivered)
	det["scbr_polled"] = float64(polled)
	det["scbr_subscribers"] = float64(len(sub))
	for k, v := range s.rs.Snapshot() {
		det["sim_"+k] = v
	}
	for k, v := range s.gw.Snapshot() {
		det["gw_"+k] = v
	}

	return det, nil
}

// wireSuite measures the HTTP front end (internal/wire) with wireRun's
// closed-loop plane load and SCBR sweep. The workload is replayed on
// two freshly built stacks and every deterministic counter must match
// bit-for-bit, because the counters are pure functions of the seed — HTTP
// moves the bytes but decides nothing. Over that path no request may go
// unanswered and the gateway may reject no well-formed frame.
func wireSuite() (result, error) {
	var r result
	det, err := wireRun()
	if err != nil {
		return r, err
	}
	r.Deterministic = det
	again, err := wireRun()
	if err != nil {
		return r, err
	}
	if key := firstDiff(det, again); key != "" {
		r.Problems = append(r.Problems, key+" differs between back-to-back runs on fresh stacks (nondeterministic)")
	}
	if det["plane_lost"] != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%v requests never answered within the run, want 0 (reply loss over HTTP)", det["plane_lost"]))
	}
	if det["gw_rejected"] != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("gateway rejected %v well-formed frames, want 0", det["gw_rejected"]))
	}
	return r, nil
}
