package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/scbr"
)

// planeFixture boots a bus + attestation stack + one replica set with a
// wire server in front, and returns the running test server.
type planeFixture struct {
	bus    *eventbus.Bus
	keys   attest.ServiceKeys
	rs     *microsvc.ReplicaSet
	gw     *PlaneGateway
	server *Server
	ts     *httptest.Server
}

func newPlaneFixture(t *testing.T, name string, cfg microsvc.ReplicaSetConfig, wcfg Config) *planeFixture {
	t.Helper()
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x5E
	keys, err := microsvc.NewServiceKeys(root, name, cfg.InTopic, cfg.OutTopic)
	if err != nil {
		t.Fatal(err)
	}
	kb.Register(name, attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(name)}}, keys)
	rs, err := microsvc.NewReplicaSet(bus, svc, kb, name,
		func(req []byte) ([]byte, error) { return bytes.ToUpper(req), nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Stop)
	gw, err := NewPlaneGateway(bus, name, keys, cfg.InTopic, cfg.OutTopic)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	wcfg.Sources = append(wcfg.Sources, rs)
	server := NewServer(wcfg)
	server.RegisterPlane(name, gw)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	return &planeFixture{bus: bus, keys: keys, rs: rs, gw: gw, server: server, ts: ts}
}

func httpPlaneClient(t *testing.T, fx *planeFixture, name string) *microsvc.PlaneClient {
	t.Helper()
	tr := NewPlaneTransport(fx.ts.URL, name, fx.ts.Client())
	client, err := microsvc.NewPlaneClientTransport(name, fx.keys.Request, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

func TestPlaneOverHTTP(t *testing.T) {
	fx := newPlaneFixture(t, "plane/upper",
		microsvc.ReplicaSetConfig{Replicas: 2, InTopic: "up/req", OutTopic: "up/resp"}, Config{})
	client := httpPlaneClient(t, fx, "plane/upper")

	reqs := make([]microsvc.PlaneRequest, 12)
	for i := range reqs {
		reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("k%02d", i), Body: []byte(fmt.Sprintf("body %d", i))}
	}
	if _, err := client.SendTenantIDs("acme", reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.rs.Step(); err != nil {
		t.Fatal(err)
	}
	replies, err := client.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(reqs) {
		t.Fatalf("got %d replies, want %d", len(replies), len(reqs))
	}
	for _, rep := range replies {
		if rep.Shed {
			t.Fatalf("unexpected shed reply id %d", rep.ID)
		}
		if rep.Tenant != "acme" {
			t.Fatalf("reply tenant %q, want acme", rep.Tenant)
		}
		if !bytes.HasPrefix(rep.Body, []byte("BODY ")) {
			t.Fatalf("reply body %q not uppercased", rep.Body)
		}
	}
}

// TestHTTPRepliesByteIdenticalToInProcess is the property test: the bus
// fans the same sealed reply frames to every reply-topic subscriber, so
// the frames the HTTP gateway hands out must be byte-identical to what an
// in-process subscriber of the same plane sees — HTTP adds a hop, not a
// re-encryption.
func TestHTTPRepliesByteIdenticalToInProcess(t *testing.T) {
	fx := newPlaneFixture(t, "plane/echo",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "echo/req", OutTopic: "echo/resp"}, Config{})

	outKey, _ := fx.keys.Topic("echo/resp")
	inproc, err := eventbus.NewSubscriber(fx.bus, "echo/resp", outKey)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()

	client := httpPlaneClient(t, fx, "plane/echo")
	reqs := []microsvc.PlaneRequest{
		{Key: "a", Body: []byte("one")},
		{Key: "b", Body: []byte("two")},
		{Key: "c", Body: []byte("three")},
	}
	if _, err := client.SendTenantIDs("t1", reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.rs.Step(); err != nil {
		t.Fatal(err)
	}

	inprocFrames, err := inproc.Receive()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/plane/plane%2Fecho/poll?tenant=t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	httpFrames, err := DecodeBatch(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(httpFrames) != len(inprocFrames) || len(httpFrames) != len(reqs) {
		t.Fatalf("frame counts differ: http=%d inproc=%d want=%d", len(httpFrames), len(inprocFrames), len(reqs))
	}
	for i := range httpFrames {
		if !bytes.Equal(httpFrames[i], inprocFrames[i]) {
			t.Fatalf("frame %d differs between HTTP and in-process delivery", i)
		}
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	fx := newPlaneFixture(t, "plane/conc",
		microsvc.ReplicaSetConfig{Replicas: 4, InTopic: "conc/req", OutTopic: "conc/resp"}, Config{})

	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	pcs := make([]*microsvc.PlaneClient, clients)
	for c := range pcs {
		pcs[c] = httpPlaneClient(t, fx, "plane/conc")
	}
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := make([]microsvc.PlaneRequest, perClient)
			for i := range reqs {
				reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("c%d-k%d", c, i), Body: []byte("x")}
			}
			if _, err := pcs[c].SendTenantIDs(fmt.Sprintf("tenant-%d", c), reqs); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := fx.rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]int, clients)
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			replies, err := pcs[c].Poll(0)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[c] = len(replies)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for c, n := range got {
		if n != perClient {
			t.Fatalf("client %d got %d replies, want %d", c, n, perClient)
		}
	}
}

func TestRejectsMalformedAndOversized(t *testing.T) {
	fx := newPlaneFixture(t, "plane/guard",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "g/req", OutTopic: "g/resp"},
		Config{MaxBody: 4096})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := fx.ts.Client().Post(fx.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("/plane/plane%2Fguard/send", []byte{1, 2}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch: got %d, want 400", resp.StatusCode)
	}
	forged := binary.BigEndian.AppendUint32(nil, 1<<30)
	if resp := post("/plane/plane%2Fguard/send", forged); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged count: got %d, want 400", resp.StatusCode)
	}
	garbage := EncodeBatch([][]byte{{0, 1, 2}})
	garbage = append(garbage, 0xFF)
	if resp := post("/plane/plane%2Fguard/send", garbage); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing garbage: got %d, want 400", resp.StatusCode)
	}
	// A structurally valid batch holding a frame that fails CheckFrame.
	if resp := post("/plane/plane%2Fguard/send", EncodeBatch([][]byte{{9, 9, 9}})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad frame: got %d, want 400", resp.StatusCode)
	}
	if resp := post("/plane/plane%2Fguard/send", make([]byte, 8192)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", resp.StatusCode)
	}
	if resp := post("/plane/nope/send", EncodeBatch(nil)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown service: got %d, want 404", resp.StatusCode)
	}
}

// TestLegacyFrameRejectedAtEveryBoundary: the retired untagged layout
// (u16 key length | key | sealed) is not a plane frame. CheckFrame rejects
// it, the HTTP gateway refuses and counts it, and a replica set that finds
// one on its in topic drops it unserved.
func TestLegacyFrameRejectedAtEveryBoundary(t *testing.T) {
	fx := newPlaneFixture(t, "plane/legacy",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "lg/req", OutTopic: "lg/resp"}, Config{})
	box, err := cryptbox.NewBox(fx.keys.Request)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := box.Seal([]byte("body"), []byte("req|plane/legacy"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(binary.BigEndian.AppendUint16(nil, 3), "key"...)
	legacy = append(legacy, sealed...)

	if err := microsvc.CheckFrame(legacy); !errors.Is(err, microsvc.ErrBadFrame) {
		t.Fatalf("CheckFrame(legacy) = %v, want ErrBadFrame", err)
	}

	resp, err := fx.ts.Client().Post(fx.ts.URL+"/plane/plane%2Flegacy/send", "application/octet-stream",
		bytes.NewReader(EncodeBatch([][]byte{legacy})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gateway: got %d, want 400", resp.StatusCode)
	}
	if snap := fx.gw.Snapshot(); snap["rejected"] != 1 || snap["frames_in"] != 0 {
		t.Fatalf("gateway counters = %v, want 1 rejected, 0 in", snap)
	}

	inKey, _ := fx.keys.Topic("lg/req")
	pub, err := eventbus.NewPublisher(fx.bus, "lg/req", inKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(legacy); err != nil {
		t.Fatal(err)
	}
	st, err := fx.rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != 1 || st.Dropped != 1 || st.Served != 0 || st.Failed != 0 {
		t.Fatalf("bus: step = %+v, want the frame dropped unserved", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	fx := newPlaneFixture(t, "plane/met",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "m/req", OutTopic: "m/resp"}, Config{})
	client := httpPlaneClient(t, fx, "plane/met")
	if _, err := client.SendTenantIDs("", []microsvc.PlaneRequest{{Key: "k", Body: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"securecloud_wire_plane_met_frames_in 1", "securecloud_plane_served "} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestPprofGating(t *testing.T) {
	off := httptest.NewServer(NewServer(Config{}).Handler())
	defer off.Close()
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: got %d, want 404", resp.StatusCode)
	}
	on := httptest.NewServer(NewServer(Config{Pprof: true}).Handler())
	defer on.Close()
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: got %d, want 200", resp.StatusCode)
	}
}

func TestSCBROverHTTP(t *testing.T) {
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
	broker, err := scbr.NewBroker(e, scbr.DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(Config{Broker: broker}).Handler())
	defer ts.Close()

	sub, err := DialSCBR(ts.URL, "wire-sub", ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialSCBR(ts.URL, "wire-pub", ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	subID, err := sub.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
		{Attr: "price", Interval: scbr.Interval{Lo: 10, Hi: 20}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Fatal("subscribe returned id 0")
	}
	delivered, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"price": 15}, Payload: []byte("in range")})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if _, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"price": 99}, Payload: []byte("out of range")}); err != nil {
		t.Fatal(err)
	}
	events, err := sub.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].Payload) != "in range" {
		t.Fatalf("poll got %v, want one in-range event", events)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{{}},
		{{1}, {2, 3}, make([]byte, 1000)},
	}
	for _, frames := range cases {
		got, err := DecodeBatch(EncodeBatch(frames))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(frames) {
			t.Fatalf("round trip %d frames -> %d", len(frames), len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("frame %d differs", i)
			}
		}
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("empty body should fail")
	}
	if _, err := DecodeBatch(binary.BigEndian.AppendUint32(nil, 1<<31)); err == nil {
		t.Fatal("forged count should fail")
	}
}

// scbrFixture boots a broker enclave with a provisioned quoting enclave
// behind a wire server, for the session-security and attestation tests.
type scbrFixture struct {
	ts     *httptest.Server
	broker *scbr.Broker
	svc    *attest.Service
	quoter *attest.Quoter
	signer cryptbox.Digest
}

func newSCBRFixture(t *testing.T, mutate func(*Config)) *scbrFixture {
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
	broker, err := scbr.NewBroker(e, scbr.DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := attest.NewService()
	quoter, err := svc.Provision(p, "wire-test-platform")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Broker: broker, Quoter: quoter}
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(NewServer(cfg).Handler())
	t.Cleanup(ts.Close)
	return &scbrFixture{ts: ts, broker: broker, svc: svc, quoter: quoter, signer: signer}
}

func TestSCBRSessionTakeoverRejected(t *testing.T) {
	fx := newSCBRFixture(t, nil)
	victim, err := DialSCBR(fx.ts.URL, "victim", fx.ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
		{Attr: "a", Interval: scbr.Interval{Lo: 0, Hi: 10}},
	}}); err != nil {
		t.Fatal(err)
	}

	// A second handshake for a live client ID must be refused: accepting
	// it would seal the victim's future deliveries to the attacker's key.
	if _, err := DialSCBR(fx.ts.URL, "victim", fx.ts.Client()); err == nil {
		t.Fatal("re-handshake of a live session succeeded (session takeover)")
	} else if !strings.Contains(err.Error(), "409") {
		t.Fatalf("takeover dial error %v, want 409 conflict", err)
	}

	// The victim's session still works end to end.
	pub, err := DialSCBR(fx.ts.URL, "pub", fx.ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"a": 5}, Payload: []byte("v1")}); err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	if evs, err := victim.Poll(); err != nil || len(evs) != 1 {
		t.Fatalf("victim poll: %v err=%v", evs, err)
	}

	// A rehandshake without proof of the session key is forbidden.
	resp, err := fx.ts.Client().Post(fx.ts.URL+"/scbr/rehandshake/victim", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unproven rehandshake: got %d, want 403", resp.StatusCode)
	}

	// The real holder rotates its key and keeps receiving.
	if err := victim.Rehandshake(); err != nil {
		t.Fatal(err)
	}
	if n, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"a": 6}, Payload: []byte("v2")}); err != nil || n != 1 {
		t.Fatalf("post-rotate publish: n=%d err=%v", n, err)
	}
	evs, err := victim.Poll()
	if err != nil || len(evs) != 1 || string(evs[0].Payload) != "v2" {
		t.Fatalf("post-rotate poll: %v err=%v", evs, err)
	}
}

func TestSCBRPollRequiresSealedToken(t *testing.T) {
	fx := newSCBRFixture(t, nil)
	sub, err := DialSCBR(fx.ts.URL, "sub", fx.ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
		{Attr: "a", Interval: scbr.Interval{Lo: 0, Hi: 10}},
	}}); err != nil {
		t.Fatal(err)
	}
	pub, err := DialSCBR(fx.ts.URL, "pub", fx.ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("one")}); err != nil {
		t.Fatal(err)
	}

	// The old unauthenticated GET drain is gone.
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/scbr/poll/sub")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET poll: got %d, want 405", resp.StatusCode)
	}
	// A tokenless POST cannot drain either.
	resp, err = fx.ts.Client().Post(fx.ts.URL+"/scbr/poll/sub", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless poll: got %d, want 403", resp.StatusCode)
	}

	// A captured token replays to a 403; the queue survives both attempts.
	token, err := sub.c.SealPollToken()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = fx.ts.Client().Post(fx.ts.URL+"/scbr/poll/sub", "application/octet-stream", bytes.NewReader(token))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token: got %d, want 200", resp.StatusCode)
	}
	frames, err := DecodeBatch(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("valid token drained %d frames, want 1", len(frames))
	}
	if _, err := pub.Publish(scbr.Event{Attrs: map[string]float64{"a": 2}, Payload: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	resp, err = fx.ts.Client().Post(fx.ts.URL+"/scbr/poll/sub", "application/octet-stream", bytes.NewReader(token))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replayed token: got %d, want 403", resp.StatusCode)
	}
	// The client's own Poll (fresh token) still drains the pending event.
	evs, err := sub.Poll()
	if err != nil || len(evs) != 1 || string(evs[0].Payload) != "two" {
		t.Fatalf("post-replay poll: %v err=%v", evs, err)
	}
}

func TestDialSCBRAttestsBroker(t *testing.T) {
	fx := newSCBRFixture(t, nil)
	// Policy allowing the broker's signer: dial succeeds and works.
	cli, err := DialSCBROpts(fx.ts.URL, "attested", fx.ts.Client(), SCBRDialOpts{
		Service: fx.svc,
		Policy:  attest.Policy{AllowedMRSigner: []cryptbox.Digest{fx.signer}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
		{Attr: "a", Interval: scbr.Interval{Lo: 0, Hi: 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	// An empty policy allows nothing: the dial refuses before handing
	// over any filter.
	if _, err := DialSCBROpts(fx.ts.URL, "strict", fx.ts.Client(), SCBRDialOpts{
		Service: fx.svc,
		Policy:  attest.Policy{},
	}); err == nil {
		t.Fatal("dial succeeded against a policy that allows nothing")
	}
	// A verifier that never provisioned the platform rejects the quote.
	if _, err := DialSCBROpts(fx.ts.URL, "foreign", fx.ts.Client(), SCBRDialOpts{
		Service: attest.NewService(),
		Policy:  attest.Policy{AllowedMRSigner: []cryptbox.Digest{fx.signer}},
	}); err == nil {
		t.Fatal("dial succeeded with a quote from an unknown platform")
	}
}

func TestWireAuthTokenGate(t *testing.T) {
	fx := newPlaneFixture(t, "plane/auth",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "auth/req", OutTopic: "auth/resp"},
		Config{AuthToken: "sekrit"})

	// Anonymous and wrong-token requests bounce off every plane endpoint.
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/plane/plane%2Fauth/poll?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous poll: got %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, fx.ts.URL+"/plane/plane%2Fauth/send", bytes.NewReader(EncodeBatch(nil)))
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = fx.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token send: got %d, want 401", resp.StatusCode)
	}
	// Metrics stay open: counters only, no control surface.
	resp, err = fx.ts.Client().Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics under auth: got %d, want 200", resp.StatusCode)
	}

	// A tokened transport works end to end.
	tr := NewPlaneTransport(fx.ts.URL, "plane/auth", fx.ts.Client()).WithAuth("sekrit")
	client, err := microsvc.NewPlaneClientTransport("plane/auth", fx.keys.Request, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if _, err := client.SendTenantIDs("acme", []microsvc.PlaneRequest{{Key: "k", Body: []byte("hi")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.rs.Step(); err != nil {
		t.Fatal(err)
	}
	replies, err := client.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0].Body) != "HI" {
		t.Fatalf("tokened round trip got %v", replies)
	}
}

func TestMailboxCapDropsOldest(t *testing.T) {
	fx := newPlaneFixture(t, "plane/cap",
		microsvc.ReplicaSetConfig{Replicas: 1, InTopic: "cap/req", OutTopic: "cap/resp"}, Config{})
	fx.gw.SetMailboxCap(4)
	client := httpPlaneClient(t, fx, "plane/cap")

	reqs := make([]microsvc.PlaneRequest, 12)
	for i := range reqs {
		reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("k%02d", i), Body: []byte("x")}
	}
	if _, err := client.SendTenantIDs("hoarder", reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.rs.Step(); err != nil {
		t.Fatal(err)
	}
	// Poll a DIFFERENT tenant: the gateway routes the 12 replies into
	// hoarder's mailbox, which must cap at 4 with 8 dropped — an attacker
	// stuffing tenants nobody polls cannot grow memory without bound.
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/plane/plane%2Fcap/poll?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := fx.gw.Snapshot()
	if snap["mailbox_depth"] != 4 || snap["mail_dropped"] != 8 {
		t.Fatalf("after cap: depth=%v dropped=%v, want 4/8", snap["mailbox_depth"], snap["mail_dropped"])
	}
	resp, err = fx.ts.Client().Get(fx.ts.URL + "/plane/plane%2Fcap/poll?tenant=hoarder")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	frames, err := DecodeBatch(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("capped mailbox drained %d frames, want 4", len(frames))
	}
}
