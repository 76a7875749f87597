package main

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/image"
	"securecloud/internal/microsvc"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
	"securecloud/internal/wire"
)

const (
	planeService = "plane/bench"
	planeIn      = "bench/req"
	planeOut     = "bench/resp"
	planeToken   = "bench-token"
	// planeClients is the number of sequential clients, one tenant each
	// (the gateway's mailboxes are per tenant, so a tenant has one poller).
	planeClients = 2
	// planeReqsPerTick is how many requests each client sends per tick.
	planeReqsPerTick = 4
	planeKeys        = 64
	// planeMaxSteps bounds the Steps one tick waits for its replies;
	// admission is sized so one Step answers them all.
	planeMaxSteps = 8
)

// planeWorkload drives the attested micro-service plane: two tenants send
// sealed requests, the replica set serves them, the clients open and
// echo-check the replies. overHTTP selects the loopback wire front end;
// otherwise the clients sit directly on the event bus.
type planeWorkload struct {
	overHTTP         bool
	bodyMin, bodyMax int
	poolTicks        int
	warmTicks        int

	reg    *registry.Registry
	cache  *container.BlobCache
	svc    *attest.Service
	cas    *sconert.CAS
	kb     *attest.KeyBroker
	bus    *eventbus.Bus
	keys   attest.ServiceKeys
	rs     *microsvc.ReplicaSet
	gw     *wire.PlaneGateway
	srv    *http.Server
	served chan struct{}
	hc     *http.Client
	hub    *busHub

	clients []*microsvc.PlaneClient
	tenants []string
	// pool[t][c] is client c's request batch for pool tick t.
	pool [][][]microsvc.PlaneRequest
	next int

	base         microsvc.PlaneTotals // at the end of the boot, before any request
	payloadBytes uint64               // request + reply bodies since then
	queueMax     int
	busDepthMax  int
}

func newPlaneHTTPSmall() workload {
	return &planeWorkload{overHTTP: true, bodyMin: 64, bodyMax: 256, poolTicks: 512, warmTicks: 64}
}

func newPlaneInprocLarge() workload {
	return &planeWorkload{bodyMin: 8 << 10, bodyMax: 32 << 10, poolTicks: 48, warmTicks: 16}
}

func (p *planeWorkload) shape() shape {
	return shape{
		opsPerTick:   planeClients * planeReqsPerTick,
		nSim:         planeClients * planeReqsPerTick * 128,
		payloadBytes: (p.bodyMin + p.bodyMax) / 2,
		warmTicks:    p.warmTicks,
	}
}

func echoHandler(req []byte) ([]byte, error) { return append([]byte("ok:"), req...), nil }

func (p *planeWorkload) setup(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	p.reg, p.cache = registry.New(), container.NewBlobCache()
	p.svc = attest.NewService()
	p.cas = sconert.NewCAS(p.svc)
	p.kb = attest.NewKeyBroker(p.svc)
	p.bus = eventbus.New()

	// Step (i) of the paper's flow: the owner builds and signs the image,
	// secures it, registers its SCF with the CAS and pushes it.
	signSeed := make([]byte, ed25519.SeedSize)
	rng.Read(signSeed)
	priv := ed25519.NewKeyFromSeed(signSeed)
	binary := make([]byte, 256<<10)
	rng.Read(binary)
	img, err := image.NewBuilder(planeService, "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: binary}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(2 << 20).
		Build(priv)
	if err != nil {
		return err
	}
	owner := container.NewSCONEClient(priv, p.cas)
	secured, secrets, err := owner.BuildSecure(img, nil)
	if err != nil {
		return err
	}
	if _, err := owner.Deploy(secured, secrets, nil, nil); err != nil {
		return err
	}
	if err := p.reg.Push(secured); err != nil {
		return err
	}
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		return err
	}
	var root cryptbox.Key
	rng.Read(root[:])
	p.keys, err = microsvc.NewServiceKeys(root, planeService, planeIn, planeOut)
	if err != nil {
		return err
	}
	p.kb.Register(planeService, attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, p.keys)

	// Pull, SCONE boot, attestation #1 (SCF), attestation #2 (service
	// keys) for the front end and both replicas. Admission admits exactly
	// what the two tenants offer per tick, so nothing is shed.
	perTick := planeClients * planeReqsPerTick
	endBoot := e.tr.span("setup.microsvc.boot_set")
	p.rs, err = microsvc.NewContainerReplicaSet(p.bus, p.svc, p.kb, planeService, echoHandler,
		microsvc.ReplicaSetConfig{
			Replicas: 2, InTopic: planeIn, OutTopic: planeOut,
			Admission: &microsvc.AdmissionConfig{
				Default:         microsvc.TenantPolicy{Weight: 1, Rate: perTick, Burst: perTick, MaxQueue: 4 * perTick},
				DispatchPerStep: 2 * perTick,
			},
		},
		microsvc.ContainerSpec{
			Registry: &tracedPullSource{inner: p.reg, tr: e.tr},
			CAS:      p.cas, Image: planeService, Tag: "1.0", Cache: p.cache,
		})
	endBoot()
	if err != nil {
		return err
	}

	for c := 0; c < planeClients; c++ {
		p.tenants = append(p.tenants, fmt.Sprintf("tenant-%d", c))
	}
	if p.overHTTP {
		if err := p.serveHTTP(); err != nil {
			return err
		}
	} else {
		p.hub, err = newBusHub(p.bus, p.keys, e.tr)
		if err != nil {
			return err
		}
	}
	for c := 0; c < planeClients; c++ {
		var tr microsvc.Transport
		if p.overHTTP {
			tr = &tracedTransport{
				inner: wire.NewPlaneTransport("http://"+p.srv.Addr, planeService, p.hc).WithAuth(planeToken),
				tr:    e.tr,
			}
		} else {
			tr = &hubTransport{hub: p.hub, tenant: p.tenants[c]}
		}
		pc, err := microsvc.NewPlaneClientTransport(planeService, p.keys.Request, tr)
		if err != nil {
			return err
		}
		p.clients = append(p.clients, pc)
	}

	// Every request of the run, generated up front: drawing 32 KiB bodies
	// inside the loop would charge the generator to the plane. Body sizes
	// are an even ladder from bodyMin to bodyMax dealt to the tick's
	// requests in a seeded order, so a tick carries the same number of
	// bytes whatever the seed and only contents, keys and order vary.
	sizes := make([]int, perTick)
	p.pool = make([][][]microsvc.PlaneRequest, e.scale(p.poolTicks, 8))
	for t := range p.pool {
		for i := range sizes {
			sizes[i] = p.bodyMin + (p.bodyMax-p.bodyMin)*i/(perTick-1)
		}
		rng.Shuffle(perTick, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		p.pool[t] = make([][]microsvc.PlaneRequest, planeClients)
		for c := range p.pool[t] {
			reqs := make([]microsvc.PlaneRequest, planeReqsPerTick)
			for i := range reqs {
				body := make([]byte, sizes[c*planeReqsPerTick+i])
				rng.Read(body)
				reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("k%04d", rng.Intn(planeKeys)), Body: body}
			}
			p.pool[t][c] = reqs
		}
	}

	if e.quick {
		p.warmTicks = 4
	}
	p.base = p.rs.Totals()
	return nil
}

// serveHTTP puts the plane behind the wire server on a loopback listener.
func (p *planeWorkload) serveHTTP() error {
	gw, err := wire.NewPlaneGateway(p.bus, planeService, p.keys, planeIn, planeOut)
	if err != nil {
		return err
	}
	p.gw = gw
	ws := wire.NewServer(wire.Config{AuthToken: planeToken})
	ws.RegisterPlane(planeService, gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.srv = &http.Server{Addr: ln.Addr().String(), Handler: ws.Handler()}
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	// One keep-alive connection per sequential client.
	p.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: planeClients}}
	return nil
}

func (p *planeWorkload) tick(e *env) error {
	batch := p.pool[p.next%len(p.pool)]
	p.next++
	var (
		sentAt [planeClients]time.Time
		base   [planeClients]uint64
		got    [planeClients][planeReqsPerTick]bool
	)
	for c, pc := range p.clients {
		sentAt[c] = time.Now()
		end := e.tr.span("microsvc.send")
		ids, err := pc.SendTenantIDs(p.tenants[c], batch[c])
		end()
		if err != nil {
			return err
		}
		base[c] = ids[0]
		for _, q := range batch[c] {
			p.payloadBytes += uint64(len(q.Body))
		}
	}
	if e.tr.enabled() {
		if d := p.bus.Depth(planeIn); d > p.busDepthMax {
			p.busDepthMax = d
		}
	}
	outstanding := planeClients * planeReqsPerTick
	for step := 0; step < planeMaxSteps && outstanding > 0; step++ {
		end := e.tr.span("microsvc.step")
		_, err := p.rs.Step()
		end()
		if err != nil {
			return err
		}
		if e.tr.enabled() {
			if q := p.rs.AdmissionStats().Queued; q > p.queueMax {
				p.queueMax = q
			}
		}
		for c, pc := range p.clients {
			end := e.tr.span("microsvc.poll")
			reps, err := pc.Poll(0)
			end()
			if err != nil {
				return err
			}
			now := time.Now()
			for _, rep := range reps {
				i := int(rep.ID - base[c])
				if rep.ID < base[c] || i >= planeReqsPerTick || got[c][i] {
					return fmt.Errorf("client %d: unexpected reply id %d", c, rep.ID)
				}
				got[c][i] = true
				outstanding--
				p.payloadBytes += uint64(len(rep.Body))
				want := batch[c][i].Body
				if rep.Shed || len(rep.Body) != 3+len(want) || string(rep.Body[:3]) != "ok:" || !bytes.Equal(rep.Body[3:], want) {
					e.fail(1)
					continue
				}
				e.ok(now.Sub(sentAt[c]), now)
			}
		}
	}
	if outstanding > 0 {
		e.fail(outstanding) // lost: no reply within planeMaxSteps
	}
	return nil
}

func (p *planeWorkload) sim() (cycles, faults uint64) {
	t := p.rs.Totals()
	return uint64(t.SerialCycles + t.FrontCycles), t.Faults + t.FrontFaults
}

// verify has nothing left to do: every reply is echo-checked in the loop.
func (p *planeWorkload) verify(*env) error { return nil }

func (p *planeWorkload) layers(e *env, lc *layerCtx) error {
	v, reqs := lc.vals, lc.win.attempted
	lc.selfPerOp("microsvc.client_seal_us_per_req", "microsvc.send", reqs)
	lc.selfPerOp("microsvc.client_open_us_per_req", "microsvc.poll", reqs)
	lc.perOp("microsvc.step_us_per_req", "microsvc.step", reqs)
	if boot := lc.agg["setup.microsvc.boot_set"]; boot.Count > 0 {
		// The front end and both replicas boot through the same path.
		v["microsvc.boot_ms_per_replica"] = boot.TotalUS / 1e3 / 3
	}
	lc.perCall("registry.blob_fetch_us_per_chunk", "registry.blob", 1)

	t := p.rs.Totals()
	if served := t.Served - p.base.Served; served > 0 {
		v["microsvc.step_sim_cycles_per_req"] = float64(t.SerialCycles-p.base.SerialCycles) / float64(served)
		v["microsvc.front_sim_cycles_per_req"] = float64(t.FrontCycles-p.base.FrontCycles) / float64(served)
		v["microsvc.shed_ratio"] = float64(t.Shed-p.base.Shed) / float64(served+t.Shed-p.base.Shed)
	}
	v["microsvc.queue_depth_max"] = float64(p.queueMax)
	v["eventbus.depth_max"] = float64(p.busDepthMax)

	if p.overHTTP {
		lc.perOp("wire.send_us_per_req", "wire.send", reqs)
		lc.perOp("wire.recv_us_per_req", "wire.recv", reqs)
		snap := p.gw.Snapshot()
		if p.payloadBytes > 0 {
			v["wire.bytes_per_payload_byte"] = (snap["bytes_in"] + snap["bytes_out"]) / float64(p.payloadBytes)
		}
		v["wire.mail_dropped"] = snap["mail_dropped"]
		if err := p.probeWire(v); err != nil {
			return err
		}
		v["wire.http_tax_us_per_req"] = v["wire.send_us_per_req"] + v["wire.recv_us_per_req"] - v["wire.gateway_us_per_req"]
	} else {
		lc.perOp("eventbus.publish_us_per_msg", "eventbus.publish", reqs)
		lc.perOp("eventbus.poll_us_per_msg", "eventbus.poll", reqs)
	}

	registryCounters(p.reg, v)
	cs := p.cache.Stats()
	if n := cs.Hits + cs.Misses; n > 0 {
		v["container.cache_hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	return p.probeBoot(v)
}

// probeWire times the gateway and the batch codec directly, on the sealed
// frames of this workload's own requests. The probe gateway publishes to
// and polls from one topic, so what SendFrames admits PollTenant sorts
// into the tenant's mailbox, with no replica set in between.
func (p *planeWorkload) probeWire(v map[string]float64) error {
	capture := &captureTransport{}
	pc, err := microsvc.NewPlaneClientTransport(planeService, p.keys.Request, capture)
	if err != nil {
		return err
	}
	n := len(p.pool)
	if n > 256 {
		n = 256
	}
	for t := 0; t < n; t++ {
		if _, err := pc.SendTenantIDs(p.tenants[0], p.pool[t][0]); err != nil {
			return err
		}
	}
	bus := eventbus.New()
	defer bus.Close()
	gw, err := wire.NewPlaneGateway(bus, planeService, p.keys, planeIn, planeIn)
	if err != nil {
		return err
	}
	defer gw.Close()
	var frames int
	t0 := time.Now()
	for _, batch := range capture.batches {
		if _, err := gw.SendFrames(batch); err != nil {
			return err
		}
		out, err := gw.PollTenant(p.tenants[0])
		if err != nil {
			return err
		}
		if len(out) != len(batch) {
			return fmt.Errorf("probe gateway returned %d of %d frames", len(out), len(batch))
		}
		frames += len(batch)
	}
	v["wire.gateway_us_per_req"] = usOf(time.Since(t0)) / float64(frames)

	t0 = time.Now()
	for _, batch := range capture.batches {
		back, err := wire.DecodeBatch(wire.EncodeBatch(batch))
		if err != nil {
			return err
		}
		if len(back) != len(batch) {
			return errors.New("probe codec lost frames")
		}
	}
	v["wire.codec_us_per_batch"] = usOf(time.Since(t0)) / float64(len(capture.batches))
	return nil
}

// probeBoot launches one more node through the full container path with a
// cold cache, and runs one more key release from its enclave.
func (p *planeWorkload) probeBoot(v map[string]float64) error {
	eng, err := container.LaunchNode(p.svc, planeService+"/probe", p.reg, enclave.Config{})
	if err != nil {
		return err
	}
	eng.Cache = container.NewBlobCache()
	t0 := time.Now()
	c, err := eng.Run(planeService, "1.0", p.cas)
	if err != nil {
		return err
	}
	v["container.boot_ms"] = msOf(time.Since(t0))
	defer c.Stop()
	v["container.pull_critical_cycles"] = float64(eng.LastPullStats().CriticalCycles)

	const releases = 8
	t0 = time.Now()
	for i := 0; i < releases; i++ {
		if _, err := attest.FetchServiceKeys(c.Runtime.Enclave(), eng.Quoter, p.kb, planeService); err != nil {
			return err
		}
	}
	v["attest.key_release_us"] = usOf(time.Since(t0)) / releases
	if hits, misses := p.kb.CacheStats(); hits+misses > 0 {
		v["attest.quote_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return nil
}

func (p *planeWorkload) close() {
	for _, pc := range p.clients {
		pc.Close()
	}
	if p.hub != nil {
		p.hub.close()
	}
	if p.srv != nil {
		_ = p.srv.Close()
		<-p.served
		p.hc.CloseIdleConnections()
	}
	if p.gw != nil {
		p.gw.Close()
	}
	if p.rs != nil {
		p.rs.Stop()
	}
	if p.bus != nil {
		p.bus.Close()
	}
}
