package main

import (
	"fmt"
	"net"
	"net/http"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/loadgen"
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
)

// planeDriver adapts the HTTP plane clients to the loadgen Driver.
type planeDriver struct {
	rs      *microsvc.ReplicaSet
	clients []*microsvc.PlaneClient
}

func (d *planeDriver) Send(client int, tenant string, reqs []loadgen.Request) ([]uint64, error) {
	pr := make([]microsvc.PlaneRequest, len(reqs))
	for i, r := range reqs {
		pr[i] = microsvc.PlaneRequest{Key: r.Key, Body: r.Body}
	}
	return d.clients[client].SendTenantIDs(tenant, pr)
}

func (d *planeDriver) Poll(client int) ([]loadgen.Reply, error) {
	reps, err := d.clients[client].Poll(0)
	if err != nil {
		return nil, err
	}
	out := make([]loadgen.Reply, len(reps))
	for i, r := range reps {
		out[i] = loadgen.Reply{ID: r.ID, Shed: r.Shed}
	}
	return out, nil
}

func (d *planeDriver) Step() error {
	_, err := d.rs.Step()
	return err
}

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
	s = &wireStack{rs: rs, keys: keys, svc: svc}
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
	s.rs.Stop()
}

// wireRun builds a fresh stack, replays the whole seeded workload over
// HTTP — the closed-loop plane load through warmup/inject/recover, then
// SCBR subscribe/publish/poll through the same server — and returns the
// deterministic counters plus the informational wall-clock figures.
func wireRun() (det, wall map[string]float64, err error) {
	s, err := buildWireStack()
	if err != nil {
		return nil, nil, err
	}
	defer s.close()

	const clients = 4
	spec := loadgen.Spec{
		Clients:    clients,
		Seed:       1109,
		Keys:       32,
		Tenants:    []string{"t0", "t1", "t2", "t3"},
		PayloadMin: 48,
		PayloadMax: 768,
		Phases: []loadgen.Phase{
			{Name: "warmup", Ticks: wireTicks, PerClient: 1},
			{Name: "inject", Ticks: 2 * wireTicks, PerClient: 4},
			{Name: "recover", Ticks: wireTicks, PerClient: 1},
		},
		DrainTicks: 3 * wireTicks,
	}
	drv := &planeDriver{rs: s.rs}
	for c := 0; c < clients; c++ {
		tr := wire.NewPlaneTransport(s.url, wireService, http.DefaultClient).WithAuth(wireAuthToken)
		pc, err := microsvc.NewPlaneClientTransport(wireService, s.keys.Request, tr)
		if err != nil {
			return nil, nil, err
		}
		defer pc.Close()
		drv.clients = append(drv.clients, pc)
	}
	res, err := loadgen.Run(spec, drv)
	if err != nil {
		return nil, nil, err
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
		sc, err := wire.DialSCBROpts(s.url, fmt.Sprintf("sub-%d", i), http.DefaultClient, dialOpts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := sc.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
			{Attr: "price", Interval: scbr.Interval{Lo: float64(i * 10), Hi: float64(i*10 + 14)}},
		}}); err != nil {
			return nil, nil, err
		}
		sub[i] = sc
	}
	pubc, err := wire.DialSCBROpts(s.url, "pub-0", http.DefaultClient, dialOpts)
	if err != nil {
		return nil, nil, err
	}
	for v := 0; v < 60; v += 3 {
		n, err := pubc.Publish(scbr.Event{Attrs: map[string]float64{"price": float64(v)}, Payload: []byte{byte(v)}})
		if err != nil {
			return nil, nil, err
		}
		delivered += n
	}
	for _, sc := range sub {
		evs, err := sc.Poll()
		if err != nil {
			return nil, nil, err
		}
		polled += len(evs)
	}

	det = map[string]float64{
		"plane_sent":       float64(res.Sent),
		"plane_served":     float64(res.Served),
		"plane_shed":       float64(res.Shed),
		"plane_lost":       float64(res.Lost),
		"bytes_sent":       float64(res.BytesSent),
		"phase_warmup":     float64(res.PhaseSent["warmup"]),
		"phase_inject":     float64(res.PhaseSent["inject"]),
		"phase_recover":    float64(res.PhaseSent["recover"]),
		"scbr_delivered":   float64(delivered),
		"scbr_polled":      float64(polled),
		"scbr_subscribers": float64(len(sub)),
	}
	for i, c := range res.Sizes.BucketCounts() {
		det[fmt.Sprintf("sizehist_b%02d", i)] = float64(c)
	}
	for k, v := range s.rs.Snapshot() {
		det["sim_"+k] = v
	}
	for k, v := range s.gw.Snapshot() {
		det["gw_"+k] = v
	}

	lat := res.Latency
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	wall = map[string]float64{
		"p50_us":     us(lat.Quantile(0.50)),
		"p95_us":     us(lat.Quantile(0.95)),
		"p99_us":     us(lat.Quantile(0.99)),
		"max_us":     us(lat.Max()),
		"mean_us":    lat.Mean() / 1e3,
		"elapsed_ms": float64(res.Elapsed.Milliseconds()),
		"rps":        float64(res.Sent) / res.Elapsed.Seconds(),
	}
	return det, wall, nil
}

// wireSuite measures the HTTP front end (internal/wire) with the
// closed-loop load harness (internal/loadgen). The workload is replayed on
// two freshly built stacks and every deterministic counter must match
// bit-for-bit, because the counters are pure functions of the seed — HTTP
// moves the bytes but decides nothing. Over that path no request may go
// unanswered and the gateway may reject no well-formed frame.
func wireSuite() (result, error) {
	var r result
	det, wall, err := wireRun()
	if err != nil {
		return r, err
	}
	r.Deterministic, r.Wallclock = det, wall
	again, _, err := wireRun()
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
