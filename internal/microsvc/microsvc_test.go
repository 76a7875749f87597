package microsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/smartgrid"
)

// rawFixture is a one-replica set, the owner's client, and what a holder
// of the topic stream keys — but not the request key — can do: publish
// arbitrary frames onto the in topic and read the frames on the out topic.
type rawFixture struct {
	rs     *ReplicaSet
	client *PlaneClient
	in     *eventbus.Publisher
	out    *eventbus.Subscriber
}

func newRawFixture(t *testing.T, name string, h Handler) *rawFixture {
	t.Helper()
	bus, svc, kb, keys := planeFixture(t, name, "s/req", "s/resp")
	rs, err := NewReplicaSet(bus, svc, kb, name, h,
		ReplicaSetConfig{Replicas: 1, InTopic: "s/req", OutTopic: "s/resp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Stop)
	inKey, _ := keys.Topic("s/req")
	outKey, _ := keys.Topic("s/resp")
	in, err := eventbus.NewPublisher(bus, "s/req", inKey)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eventbus.NewSubscriber(bus, "s/resp", outKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(out.Close)
	client, err := NewPlaneClient(bus, name, keys, "s/req", "s/resp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return &rawFixture{rs: rs, client: client, in: in, out: out}
}

// send has the owner's client send one well-formed request.
func (fx *rawFixture) send(t *testing.T) {
	t.Helper()
	if _, err := fx.client.SendTenantIDs("", []PlaneRequest{{Key: "k", Body: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
}

// sendForged publishes one request sealed under a key other than the
// service's request key.
func (fx *rawFixture) sendForged(t *testing.T) {
	t.Helper()
	wrong, _ := cryptbox.NewBox(cryptbox.Key{0xEE})
	frame, err := sealFrame(nil, wrong, "k", frameMeta{}, 0, []byte("req"), reqAADFor("plane/upper"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.in.PublishBatch([][]byte{frame}); err != nil {
		t.Fatal(err)
	}
}

// stepFails runs one Step and requires it to count exactly one Failed
// request, none Served, and publish no reply.
func (fx *rawFixture) stepFails(t *testing.T) {
	t.Helper()
	before := fx.rs.Totals()
	st, err := fx.rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Served != 0 || st.Replies != 0 {
		t.Fatalf("step = %+v, want exactly one Failed and nothing served", st)
	}
	if tot := fx.rs.Totals(); tot.Failed != before.Failed+1 || tot.Served != before.Served {
		t.Fatalf("totals = %+v after %+v", tot, before)
	}
}

func upper(req []byte) ([]byte, error) { return bytes.ToUpper(req), nil }

// TestInvokeRejectsForgedRequest: a body sealed under any key but the
// service's request key fails inside the replica.
func TestInvokeRejectsForgedRequest(t *testing.T) {
	fx := newRawFixture(t, "plane/upper", upper)
	fx.sendForged(t)
	fx.stepFails(t)
}

// TestResponseCannotBeReplayedAsRequest: a served reply frame copied off
// the out topic and replayed onto the in topic does not open as a request.
func TestResponseCannotBeReplayedAsRequest(t *testing.T) {
	fx := newRawFixture(t, "plane/upper", upper)
	fx.send(t)
	if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
		t.Fatalf("step = %+v, %v", st, err)
	}
	replies, err := fx.out.Receive()
	if err != nil || len(replies) != 1 {
		t.Fatalf("reply frames = %d, %v", len(replies), err)
	}
	if _, err := fx.in.PublishBatch([][]byte{replies[0]}); err != nil {
		t.Fatal(err)
	}
	fx.stepFails(t)
}

// relayedFrames is a Transport whose RecvFrames hands the client frames a
// (dishonest) host chose.
type relayedFrames struct{ frames [][]byte }

func (r *relayedFrames) SendFrames([][]byte) error { return nil }
func (r *relayedFrames) RecvFrames() ([][]byte, error) {
	f := r.frames
	r.frames = nil
	return f, nil
}
func (r *relayedFrames) Close() {}

// spliceHeader moves frame's sealed body under another header.
func spliceHeader(t *testing.T, frame []byte, meta frameMeta, flags byte) []byte {
	t.Helper()
	q, _, err := decodeFrameAny(frame)
	if err != nil {
		t.Fatal(err)
	}
	return append(appendFrameV2Header(nil, q.key, meta, flags), q.sealed...)
}

// TestFrameHeaderSpliceRejected: the host moves alice/1's sealed request,
// reply and shed notice under bob/2's cleartext header. The replica does
// not serve the spliced request, so admission cannot be charged to bob,
// and the client accepts neither the spliced reply nor the spliced shed
// notice, so bob's request is neither answered nor rescheduled by them.
func TestFrameHeaderSpliceRejected(t *testing.T) {
	fx := newRawFixture(t, "plane/upper", upper)
	alice, bob := frameMeta{tenant: "alice", id: 1}, frameMeta{tenant: "bob", id: 2}
	req, err := sealFrame(nil, fx.client.box, "k", alice, 0, []byte("req"), fx.client.reqAAD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.in.PublishBatch([][]byte{spliceHeader(t, req, bob, 0)}); err != nil {
		t.Fatal(err)
	}
	fx.stepFails(t)

	if _, err := fx.in.PublishBatch([][]byte{req}); err != nil {
		t.Fatal(err)
	}
	if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
		t.Fatalf("genuine request: step = %+v, %v", st, err)
	}
	replies, err := fx.out.Receive()
	if err != nil || len(replies) != 1 {
		t.Fatalf("reply frames = %d, %v", len(replies), err)
	}
	shed, err := sealFrame(nil, fx.rs.front.box, "k", alice, frameFlagShed, make([]byte, 8), fx.rs.front.shedAAD)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		flags byte
	}{{"reply", replies[0], 0}, {"shed notice", shed, frameFlagShed}} {
		// Both requests were sealed by hand, not sent through the client,
		// so mark them outstanding: a reply to either is then refused only
		// for failing authentication.
		fx.client.inflight[alice.id], fx.client.inflight[bob.id] = nil, nil
		tr := &relayedFrames{frames: [][]byte{spliceHeader(t, c.frame, bob, c.flags)}}
		fx.client.tr = tr
		if reps, err := fx.client.Poll(0); !errors.Is(err, ErrSealedRequest) {
			t.Fatalf("spliced %s: Poll = %+v, %v; want ErrSealedRequest", c.name, reps, err)
		}
		tr.frames = [][]byte{c.frame}
		if reps, err := fx.client.Poll(0); err != nil || len(reps) != 1 || reps[0].Tenant != "alice" || reps[0].ID != 1 {
			t.Fatalf("genuine %s: Poll = %+v, %v", c.name, reps, err)
		}
	}
}

// TestPlaneClientRefusesReplayedReply: over the in-process bus, with retry
// off and on, a byte-for-byte copy of an authentic reply the client already
// took — a served reply, a shed notice that ends its request, or one that
// queued it for a retry not yet re-sent — is refused as not outstanding,
// and so is an authentic shed notice for an ID the client never sent.
func TestPlaneClientRefusesReplayedReply(t *testing.T) {
	for _, retry := range []bool{false, true} {
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			fx := newRawFixture(t, "plane/upper", upper)
			if retry {
				fx.client.EnableRetry(RetryPolicy{MaxAttempts: 2})
			}
			live := fx.client.tr
			relay := func(frame []byte) ([]PlaneReply, error) {
				fx.client.tr = &relayedFrames{frames: [][]byte{bytes.Clone(frame)}}
				defer func() { fx.client.tr = live }()
				return fx.client.Poll(0)
			}
			refused := func(what string, frame []byte) {
				t.Helper()
				reps, err := relay(frame)
				if err == nil || errors.Is(err, ErrSealedRequest) || !strings.Contains(err.Error(), "not outstanding") {
					t.Fatalf("%s: Poll = %+v, %v; want a not-outstanding error", what, reps, err)
				}
			}

			fx.send(t)
			if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
				t.Fatalf("step = %+v, %v", st, err)
			}
			served, err := fx.out.Receive()
			if err != nil || len(served) != 1 {
				t.Fatalf("reply frames = %d, %v", len(served), err)
			}
			if reps, err := fx.client.Poll(0); err != nil || len(reps) != 1 || reps[0].ID != 1 || reps[0].Shed {
				t.Fatalf("genuine reply: Poll = %+v, %v", reps, err)
			}
			refused("replayed reply", served[0])

			fx.send(t) // request 2, shed below instead of served
			shed, err := sealFrame(nil, fx.rs.front.box, "k", frameMeta{id: 2}, frameFlagShed, make([]byte, 8), fx.rs.front.shedAAD)
			if err != nil {
				t.Fatal(err)
			}
			accepted := func(what string) {
				t.Helper()
				if reps, err := relay(shed); err != nil || len(reps) != 1 || reps[0].ID != 2 || !reps[0].Shed {
					t.Fatalf("%s: Poll = %+v, %v", what, reps, err)
				}
			}
			accepted("genuine shed notice")
			refused("replayed shed notice", shed)
			if retry { // the first shed queued a retry; re-send it and shed it again
				if n, err := fx.client.DueRetries(1); err != nil || n != 1 {
					t.Fatalf("DueRetries = %d, %v", n, err)
				}
				accepted("shed notice for the re-sent request")
				refused("replayed final shed notice", shed)
			}
			unsent, err := sealFrame(nil, fx.rs.front.box, "k", frameMeta{id: 99}, frameFlagShed, make([]byte, 8), fx.rs.front.shedAAD)
			if err != nil {
				t.Fatal(err)
			}
			refused("shed notice for an unsent ID", unsent)
			if _, abandoned, inflight := fx.client.RetryStats(); inflight != 0 || (retry && abandoned != 1) {
				t.Fatalf("after both final replies: %d abandoned, %d in flight", abandoned, inflight)
			}
		})
	}
}

// TestRetiredTotalsKeepFailed: a departing replica's served and failed
// counts stay in the set-lifetime totals, whether it leaves through Retire
// or through Stop.
func TestRetiredTotalsKeepFailed(t *testing.T) {
	fx := newRawFixture(t, "plane/upper", upper)
	fx.send(t)
	if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
		t.Fatalf("step = %+v, %v", st, err)
	}
	fx.sendForged(t)
	fx.stepFails(t)
	first := fx.rs.ReplicaHandles()[0].ID()
	if _, err := fx.rs.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := fx.rs.Retire(first); err != nil {
		t.Fatal(err)
	}
	if tot := fx.rs.Totals(); tot.Served != 1 || tot.Failed != 1 || tot.Live != 1 {
		t.Fatalf("totals after Retire = %+v, want 1 served, 1 failed, 1 live", tot)
	}
	fx.send(t)
	if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
		t.Fatalf("step = %+v, %v", st, err)
	}
	fx.rs.Stop()
	if tot := fx.rs.Totals(); tot.Served != 2 || tot.Failed != 1 || tot.Live != 0 {
		t.Fatalf("totals after Stop = %+v, want 2 served, 1 failed, 0 live", tot)
	}
}

// TestCrossServiceRequestRejected: a request sealed for service A does not
// open in service B, even when both hold the same request key — the seal
// binds the service name.
func TestCrossServiceRequestRejected(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/b", "s/req", "s/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/b", upper,
		ReplicaSetConfig{Replicas: 1, InTopic: "s/req", OutTopic: "s/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	forA, err := NewPlaneClient(bus, "plane/a", keys, "s/req", "s/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer forA.Close()
	if _, err := forA.SendTenantIDs("", []PlaneRequest{{Key: "k", Body: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Served != 0 || st.Replies != 0 {
		t.Fatalf("request for service A handled by service B: %+v", st)
	}
}

// TestHandlerErrorPropagates: a handler error fails the request; nothing
// is served and no reply leaves the enclave.
func TestHandlerErrorPropagates(t *testing.T) {
	fx := newRawFixture(t, "plane/failing", func(req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	fx.send(t)
	fx.stepFails(t)
}

// TestStoppedService: a stopped set serves nothing, and its lifetime
// totals survive the teardown.
func TestStoppedService(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/upper", "s/req", "s/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/upper", upper,
		ReplicaSetConfig{Replicas: 2, InTopic: "s/req", OutTopic: "s/resp"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewPlaneClient(bus, "plane/upper", keys, "s/req", "s/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	send := func() {
		t.Helper()
		if _, err := client.SendTenantIDs("", []PlaneRequest{{Key: "k", Body: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	rs.Stop()
	send()
	if st, err := rs.Step(); err != nil || st.Polled != 0 || st.Served != 0 {
		t.Fatalf("stopped set stepped: %+v, %v", st, err)
	}
	if replies, err := client.Poll(0); err != nil || len(replies) != 1 {
		t.Fatalf("replies = %d, %v; want only the one served before Stop", len(replies), err)
	}
	if tot := rs.Totals(); tot.Served != 1 || tot.Live != 0 || tot.Launched != 2 {
		t.Fatalf("totals after Stop = %+v", tot)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	bus, svc, kb, _ := planeFixture(t, "plane/x", "s/req", "s/resp")
	if _, err := NewReplicaSet(bus, svc, kb, "plane/x", nil,
		ReplicaSetConfig{InTopic: "s/req", OutTopic: "s/resp"}); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// TestInvokeChargesEnclaveEntry: serving a request enters the replica's
// enclave.
func TestInvokeChargesEnclaveEntry(t *testing.T) {
	fx := newRawFixture(t, "plane/upper", upper)
	mem := fx.rs.replicas[0].enc.Memory()
	before := mem.Breakdown()[enclave.CauseTransition]
	fx.send(t)
	if st, err := fx.rs.Step(); err != nil || st.Served != 1 {
		t.Fatalf("step = %+v, %v", st, err)
	}
	if mem.Breakdown()[enclave.CauseTransition] <= before {
		t.Fatal("serving did not enter the enclave")
	}
}

// tickMsg is the request body of one telemetry tick.
type tickMsg struct {
	Tick     int64               `json:"tick"`
	Readings []smartgrid.Reading `json:"readings"`
	FeederKW map[string]float64  `json:"feeder_kw"`
}

// TestSmartGridPipelineFullStack is the §VI integration test: meter fleet
// → sealed plane requests → enclave-hosted analytics replica → sealed
// alert replies, with injected theft and a voltage sag that must both be
// detected, and no reading in plaintext on the bus.
func TestSmartGridPipelineFullStack(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "grid/analytics", "readings", "alerts")
	detector := smartgrid.NewTheftDetector()
	quality := smartgrid.NewQualityMonitor()
	rs, err := NewReplicaSet(bus, svc, kb, "grid/analytics", func(req []byte) ([]byte, error) {
		var p tickMsg
		if err := json.Unmarshal(req, &p); err != nil {
			return nil, err
		}
		var out []string
		for _, a := range detector.Observe(p.Tick, p.Readings, p.FeederKW) {
			out = append(out, "THEFT "+a.Feeder+" "+fmt.Sprint(a.Suspects))
		}
		for _, e := range quality.Observe(p.Tick, p.Readings) {
			out = append(out, "QUALITY "+e.String())
		}
		if out == nil {
			return nil, nil
		}
		return json.Marshal(out)
	}, ReplicaSetConfig{Replicas: 1, InTopic: "readings", OutTopic: "alerts", EnclaveBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "grid/analytics", keys, "readings", "alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A tap holding the readings stream key sees every frame the bus
	// carries with only the topic seal removed.
	inKey, _ := keys.Topic("readings")
	tap, err := eventbus.NewSubscriber(bus, "readings", inKey)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed: 11, Meters: 150, MetersPerFeeder: 50, TicksPerDay: 2880,
	})
	const thief = 60 // feeder-001
	fleet.InjectTheft(thief, 120, 0.2)
	fleet.InjectSag(2, 150, 155, 0.8)

	const horizon = 240
	var replies []PlaneReply
	for tick := int64(0); tick < horizon; tick++ {
		readings, feederKW := fleet.Tick(tick)
		body, err := json.Marshal(tickMsg{Tick: tick, Readings: readings, FeederKW: feederKW})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.SendTenantIDs("", []PlaneRequest{{Key: "grid", Body: body}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		reps, err := client.Poll(0)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, reps...)
	}

	var sawTheft, sawQuality bool
	for _, r := range replies {
		var batch []string
		if err := json.Unmarshal(r.Body, &batch); err != nil {
			t.Fatal(err)
		}
		for _, a := range batch {
			if strings.HasPrefix(a, "THEFT feeder-001") {
				sawTheft = true
			}
			if strings.HasPrefix(a, "QUALITY feeder-002 sag") {
				sawQuality = true
			}
		}
	}
	if !sawTheft {
		t.Fatal("theft on feeder-001 not detected through the full stack")
	}
	if !sawQuality {
		t.Fatal("voltage sag on feeder-002 not detected through the full stack")
	}
	frames, err := tap.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != horizon {
		t.Fatalf("tap saw %d frames, want %d", len(frames), horizon)
	}
	for _, f := range frames {
		if bytes.Contains(f, []byte("readings")) || bytes.Contains(f, []byte("feeder-")) {
			t.Fatal("meter readings visible in plaintext on the bus")
		}
	}
	// The analytics really ran inside the enclave.
	if rs.replicas[0].enc.Memory().Breakdown()[enclave.CauseTransition] == 0 {
		t.Fatal("no enclave entries recorded for the pipeline")
	}
	if bus.Depth("readings") != 0 {
		t.Fatal("readings left in the bus")
	}
}
