package microsvc

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/image"
	"securecloud/internal/orchestrator"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
)

// planeFixture assembles the minimal plane: bus, attestation service, key
// broker with keys registered for name under its replica signer.
func planeFixture(t testing.TB, name string, topics ...string) (*eventbus.Bus, *attest.Service, *attest.KeyBroker, attest.ServiceKeys) {
	t.Helper()
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x5E
	keys, err := NewServiceKeys(root, name, topics...)
	if err != nil {
		t.Fatal(err)
	}
	kb.Register(name, attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner(name)}}, keys)
	return bus, svc, kb, keys
}

func TestReplicaSetServesOnPlane(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/upper", "up/req", "up/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/upper",
		func(req []byte) ([]byte, error) { return bytes.ToUpper(req), nil },
		ReplicaSetConfig{Replicas: 3, InTopic: "up/req", OutTopic: "up/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/upper", keys, "up/req", "up/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reqs := make([]PlaneRequest, 20)
	for i := range reqs {
		reqs[i] = PlaneRequest{Key: fmt.Sprintf("meter-%02d", i), Body: []byte(fmt.Sprintf("reading %d", i))}
	}
	if _, err := client.SendTenantIDs("", reqs); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != 20 || st.Served != 20 || st.Failed != 0 {
		t.Fatalf("step = %+v", st)
	}
	replies, err := client.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 20 {
		t.Fatalf("replies = %d", len(replies))
	}
	byKey := make(map[string]string, len(replies))
	for _, r := range replies {
		byKey[r.Key] = string(r.Body)
	}
	for i := range reqs {
		want := strings.ToUpper(fmt.Sprintf("reading %d", i))
		if got := byKey[fmt.Sprintf("meter-%02d", i)]; got != want {
			t.Fatalf("reply for meter-%02d = %q, want %q", i, got, want)
		}
	}
	tot := rs.Totals()
	if tot.Served != 20 || tot.Launched != 3 || tot.Live != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.SerialCycles == 0 || tot.FrontCycles == 0 {
		t.Fatal("no cycles charged on the plane")
	}
}

// TestNoKeysWithoutAttestation is the acceptance property: a service whose
// enclaves do not satisfy the key broker's policy never comes up — there
// is no API path onto the plane that bypasses the verified-quote release.
func TestNoKeysWithoutAttestation(t *testing.T) {
	bus, svc, kb, _ := planeFixture(t, "plane/app", "a/req", "a/resp")
	// The broker's policy for "plane/app" allows ReplicaSigner("plane/app").
	// An impostor service reusing the same topics but a different identity
	// is denied keys, so its replica set cannot boot.
	var root cryptbox.Key
	root[0] = 0x66
	keys, err := NewServiceKeys(root, "plane/evil", "a/req", "a/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/evil",
		attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner("plane/app")}}, keys)
	_, err = NewReplicaSet(bus, svc, kb, "plane/evil",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if !errors.Is(err, attest.ErrPolicy) {
		t.Fatalf("impostor replica set booted: err = %v, want ErrPolicy", err)
	}
	// A service with no registration at all is denied outright.
	_, err = NewReplicaSet(bus, svc, kb, "plane/unknown",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if !errors.Is(err, attest.ErrUnknownService) {
		t.Fatalf("unregistered service booted: err = %v, want ErrUnknownService", err)
	}
	// Revoking the service stops scale-out: the next Launch is denied keys.
	rs, err := NewReplicaSet(bus, svc, kb, "plane/app",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	kb.Revoke("plane/app")
	if _, err := rs.Launch(); !errors.Is(err, attest.ErrServiceRevoked) {
		t.Fatalf("launch after revocation: err = %v, want ErrServiceRevoked", err)
	}
}

func TestReplicaSetKeyAffinity(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/aff", "f/req", "f/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/aff",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 4, InTopic: "f/req", OutTopic: "f/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/aff", keys, "f/req", "f/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// All requests share one routing key: exactly one replica serves them.
	for tick := 0; tick < 3; tick++ {
		var batch []PlaneRequest
		for i := 0; i < 10; i++ {
			batch = append(batch, PlaneRequest{Key: "feeder-7", Body: []byte("x")})
		}
		if _, err := client.SendTenantIDs("", batch); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, h := range rs.ReplicaHandles() {
		if h.(*Replica).Stats().Served > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("single-key load spread over %d replicas, want 1", busy)
	}
}

func TestRetireRequeuesPending(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/rq", "q/req", "q/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/rq",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "q/req", OutTopic: "q/resp",
			// A tiny budget: one request per replica per tick.
			TickBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/rq", keys, "q/req", "q/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var batch []PlaneRequest
	for i := 0; i < 12; i++ {
		batch = append(batch, PlaneRequest{Key: fmt.Sprintf("k%d", i), Body: []byte("b")})
	}
	if _, err := client.SendTenantIDs("", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 10 {
		t.Fatalf("backlog after budgeted step = %d, want 10", got)
	}
	// Retiring a replica must not lose its pending work.
	handles := rs.ReplicaHandles()
	if err := rs.Retire(handles[0].ID()); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 10 {
		t.Fatalf("backlog after retire = %d, want 10 (no work lost)", got)
	}
	// Unbudgeted steps drain everything through the survivor.
	rs.cfg.TickBudget = 0
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 0 {
		t.Fatalf("backlog after drain = %d", got)
	}
	if tot := rs.Totals(); tot.Served != 12 {
		t.Fatalf("served = %d, want 12 (retired replica's work redistributed)", tot.Served)
	}
}

func TestStepWithNoReplicasRequeues(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/none", "n/req", "n/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/none",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "n/req", OutTopic: "n/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, _ := NewPlaneClient(bus, "plane/none", keys, "n/req", "n/resp")
	defer client.Close()
	if err := rs.Retire(rs.ReplicaHandles()[0].ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SendTenantIDs("", []PlaneRequest{{Key: "k", Body: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); !errors.Is(err, ErrNoLiveReplicas) {
		t.Fatalf("err = %v, want ErrNoLiveReplicas", err)
	}
	// The polled frame was not lost: a relaunched replica serves it.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 1 {
		t.Fatalf("served = %d after relaunch, want 1", st.Served)
	}
}

// TestContainerReplicaSetBootSequence: replicas launched through the
// container path run the full paper boot sequence — image pull + verify,
// enclave build, SCONE boot with SCF release, then service-key release —
// and serve exactly like direct-mode replicas.
func TestContainerReplicaSetBootSequence(t *testing.T) {
	reg := registry.New()
	svc := attest.NewService()
	cas := sconert.NewCAS(svc)
	bus := eventbus.New()
	kb := attest.NewKeyBroker(svc)

	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.NewBuilder("plane/worker", "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: []byte("PLANE-WORKER-BINARY")}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(2 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	client := container.NewSCONEClient(priv, cas)
	secured, secrets, err := client.BuildSecure(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}

	// The key broker's policy pins the image's expected measurement: only
	// enclaves built from exactly this image receive the service keys.
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		t.Fatal(err)
	}
	var root cryptbox.Key
	root[0] = 0x7C
	keys, err := NewServiceKeys(root, "plane/worker", "w/req", "w/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/worker", attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, keys)

	rs, err := NewContainerReplicaSet(bus, svc, kb, "plane/worker",
		func(req []byte) ([]byte, error) { return append([]byte("ack:"), req...), nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "w/req", OutTopic: "w/resp"},
		ContainerSpec{Registry: reg, CAS: cas, Image: "plane/worker", Tag: "1.0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	pc, err := NewPlaneClient(bus, "plane/worker", keys, "w/req", "w/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.SendTenantIDs("", []PlaneRequest{{Key: "tenant-1", Body: []byte("job")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	replies, err := pc.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0].Body) != "ack:job" {
		t.Fatalf("replies = %+v", replies)
	}

	// Scale-out goes through the same container path.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	if rs.Replicas() != 3 {
		t.Fatalf("replicas = %d", rs.Replicas())
	}
}

// TestContainerReplicaSetSharesBlobCache: the replicas of one set pull
// through one node-local blob cache, so only the very first boot (the
// front-end's) fetches chunks; every subsequent replica — including
// scale-out — boots warm, fetching zero.
func TestContainerReplicaSetSharesBlobCache(t *testing.T) {
	reg := registry.New()
	svc := attest.NewService()
	cas := sconert.NewCAS(svc)
	bus := eventbus.New()
	kb := attest.NewKeyBroker(svc)

	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.NewBuilder("plane/cached", "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: []byte("CACHED-WORKER-BINARY")}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(2 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	client := container.NewSCONEClient(priv, cas)
	secured, secrets, err := client.BuildSecure(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		t.Fatal(err)
	}
	var root cryptbox.Key
	root[0] = 0x7D
	keys, err := NewServiceKeys(root, "plane/cached", "c/req", "c/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/cached", attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, keys)

	cache := container.NewBlobCache()
	rs, err := NewContainerReplicaSet(bus, svc, kb, "plane/cached",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "c/req", OutTopic: "c/resp"},
		ContainerSpec{Registry: reg, CAS: cas, Image: "plane/cached", Tag: "1.0", Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	st := cache.Stats()
	if st.Stores == 0 {
		t.Fatal("first boot stored no chunks")
	}
	if st.Misses != st.Stores {
		t.Fatalf("misses %d != stores %d: some boot refetched", st.Misses, st.Stores)
	}
	// Front-end + 2 replicas = 3 boots; all chunks after the first boot hit.
	if st.Hits != 2*st.Stores {
		t.Fatalf("hits = %d, want %d (two warm boots)", st.Hits, 2*st.Stores)
	}
	// Scale-out boots warm too: no new stores, only hits.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	st2 := cache.Stats()
	if st2.Stores != st.Stores || st2.Misses != st.Misses {
		t.Fatalf("scale-out refetched: before %+v after %+v", st, st2)
	}
	if st2.Hits != 3*st.Stores {
		t.Fatalf("scale-out hits = %d, want %d", st2.Hits, 3*st.Stores)
	}
}

// TestOrchestratedReplicaSetClosedLoop drives a real ReplicaSet through
// the orchestrator: a burst overloads the budgeted replicas, the
// orchestrator scales out, the burst drains, and it scales back in.
func TestOrchestratedReplicaSetClosedLoop(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/loop", "l/req", "l/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/loop",
		func(req []byte) ([]byte, error) { return nil, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "l/req", OutTopic: "l/resp",
			RequestCycles: 100_000, TickBudget: 1_000_000}) // ~9 req/tick/replica
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	o, err := orchestrator.New(orchestrator.Target{
		MaxQueueDepth: 8, MinReplicas: 1, MaxReplicas: 6, ScaleInBelow: 2,
	}, rs, rs.ReplicaHandles()...)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewPlaneClient(bus, "plane/loop", keys, "l/req", "l/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	maxReplicas := 1
	for tick := 0; tick < 40; tick++ {
		if tick < 8 { // burst: 40 req/tick vs ~9/replica capacity
			var batch []PlaneRequest
			for i := 0; i < 40; i++ {
				batch = append(batch, PlaneRequest{Key: fmt.Sprintf("k%d", i%16), Body: []byte("r")})
			}
			if _, err := client.SendTenantIDs("", batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Observe(); err != nil {
			t.Fatal(err)
		}
		if n := o.Replicas(); n > maxReplicas {
			maxReplicas = n
		}
	}
	if maxReplicas < 2 {
		t.Fatal("burst never triggered scale-out")
	}
	if got := o.Replicas(); got != 1 {
		t.Fatalf("did not scale back in: %d replicas", got)
	}
	if rs.Backlog() != 0 {
		t.Fatalf("backlog = %d after drain", rs.Backlog())
	}
	if tot := rs.Totals(); tot.Served != 8*40 {
		t.Fatalf("served = %d, want %d", tot.Served, 8*40)
	}
}

// TestRetireUnderAdmissionNoLossNoDoubleServe drives the two recovery
// paths against each other: work a retired replica requeues re-enters
// Step ahead of admission (no second token charge, no second shed
// decision), while fresh arrivals keep flowing through the controller.
// Every request is either shed exactly once at arrival or served exactly
// once — nothing lost, nothing duplicated.
func TestRetireUnderAdmissionNoLossNoDoubleServe(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/armq", "aq/req", "aq/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/armq",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "aq/req", OutTopic: "aq/resp",
			// One request per replica per tick, so retire catches pending work.
			TickBudget: 1,
			Admission: &AdmissionConfig{
				Default:         TenantPolicy{Weight: 4, MaxQueue: 8},
				DispatchPerStep: 4,
				TickMillis:      1,
			}})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/armq", keys, "aq/req", "aq/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var batch []PlaneRequest
	for i := 0; i < 12; i++ {
		batch = append(batch, PlaneRequest{Key: fmt.Sprintf("rq-%02d", i), Body: []byte{byte(i)}})
	}
	if _, err := client.SendTenantIDs("t", batch); err != nil {
		t.Fatal(err)
	}
	// Step 1: the tenant queue (MaxQueue 8) admits 8 and sheds 4 at
	// arrival; 4 dispatch, and the tick budget leaves some pending.
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 4 {
		t.Fatalf("shed at arrival = %d, want 4", st.Shed)
	}
	// Retire one replica mid-backlog: its pending work requeues.
	if err := rs.Retire(rs.ReplicaHandles()[0].ID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && rs.Backlog() > 0; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rs.Backlog(); got != 0 {
		t.Fatalf("backlog = %d after drain", got)
	}

	replies, err := client.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	perKey := make(map[string]int)
	served, shed := 0, 0
	for _, r := range replies {
		perKey[r.Key]++
		if r.Shed {
			shed++
			if r.RetryAfterSimMS <= 0 {
				t.Fatalf("shed reply for %s has no retry-after", r.Key)
			}
		} else {
			served++
		}
	}
	if served != 8 || shed != 4 {
		t.Fatalf("served = %d, shed = %d; want 8 served, 4 shed", served, shed)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("rq-%02d", i)
		if perKey[key] != 1 {
			t.Fatalf("key %s got %d replies, want exactly 1", key, perKey[key])
		}
	}
	if tot := rs.Totals(); tot.Served != 8 || tot.Shed != 4 {
		t.Fatalf("totals = %+v, want Served 8 Shed 4", tot)
	}
	adm := rs.AdmissionStats()
	ts, ok := adm.ByTenant["t"]
	if !ok || ts.Admitted != 8 || ts.Dispatched != 8 || ts.Shed != 4 {
		t.Fatalf("tenant stats = %+v, want Admitted 8 Dispatched 8 Shed 4", ts)
	}
}
