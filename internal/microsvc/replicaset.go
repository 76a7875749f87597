package microsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/orchestrator"
	"securecloud/internal/sconert"
	"securecloud/internal/sim"
)

// This file implements the application plane's replicated micro-service
// runtime (paper §III-B(2) + §VI): a ReplicaSet runs N enclave-per-replica
// workers behind one attested front-end dispatcher. The boot sequence of
// every component — front-end and replicas alike — is the paper's:
// attest → key release through the KeyBroker → subscribe. No constructor
// accepts raw keys; an enclave that fails attestation never joins the set.
//
// Requests travel as frames (frame.go): cleartext routing metadata
// followed by the body sealed under the service's request key. The
// front-end routes on the routing key with consistent hashing over the
// live replica order, so one logical entity (a smart meter, a feeder, a
// tenant) always lands on the same replica; the body is opened only inside
// the owning replica's enclave. Replies are sealed the same way in the
// opposite direction, and PlaneClient (client.go) is the owner's end.
//
// Determinism: every replica (and the front-end) owns a whole simulated
// platform, so per-replica cycle and fault totals depend only on which
// requests the replica processed — routing is a pure function of the key
// and the replica order, serve budgets are per-replica clock deltas, and
// replies are flushed in replica order after the parallel serve phase.
// Execution parallelism (ReplicaSetConfig.Workers) therefore never changes
// any simulated figure: the property tests pin bit-identical totals and
// adaptation traces across worker counts.

// ErrNoLiveReplicas is returned by Step when routed work has no replica.
var ErrNoLiveReplicas = errors.New("microsvc: replica set has no replicas")

// replicaStageBytes is the per-replica staging window through which sealed
// requests and responses are charged to the replica's simulated memory.
const replicaStageBytes = 64 << 10

// ReplicaSigner returns the MRSIGNER identity shared by every direct-mode
// replica of service name. Key-release policies for replica fleets
// allow-list this signer: replicas launched or restarted at any point in
// the service's lifetime attest under it, while any other code does not.
func ReplicaSigner(name string) cryptbox.Digest {
	return cryptbox.Sum([]byte("replica-signer|" + name))
}

// NewServiceKeys derives the deterministic key set of one service from the
// application root key: its request key plus the stream keys of the given
// bus topics. The owner registers the result with the KeyBroker; clients
// holding the root key derive the same keys locally.
func NewServiceKeys(appRoot cryptbox.Key, name string, topics ...string) (attest.ServiceKeys, error) {
	req, err := cryptbox.DeriveKey(appRoot, "svc-req:"+name)
	if err != nil {
		return attest.ServiceKeys{}, err
	}
	keys := attest.ServiceKeys{Request: req, Topics: make(map[string]cryptbox.Key, len(topics))}
	for _, t := range topics {
		k, err := eventbus.TopicKey(appRoot, t)
		if err != nil {
			return attest.ServiceKeys{}, err
		}
		keys.Topics[t] = k
	}
	return keys, nil
}

// ReplicaSetConfig shapes a replica set. Replicas and Platform are
// topology (they change placement and therefore the simulated figures);
// Workers is execution-only and never changes any figure.
type ReplicaSetConfig struct {
	// Replicas is the initial replica count (default 1).
	Replicas int
	// Workers bounds the goroutines serving replicas in parallel during
	// Step (0 = GOMAXPROCS). Execution-only.
	Workers int
	// Platform configures each replica's simulated platform (zero value =
	// platform defaults).
	Platform enclave.Config
	// EnclaveBytes sizes each direct-mode replica enclave (default 8 MiB).
	// Container-mode replicas take their size from the image manifest.
	EnclaveBytes uint64
	// InTopic / OutTopic are the bus topics the set consumes and produces.
	InTopic  string
	OutTopic string
	// PollBatch bounds how many inbound frames one Step drains (0 = all).
	PollBatch int
	// TickBudget is the per-replica serve budget per Step in simulated
	// cycles (0 = unlimited). A replica with pending work always serves at
	// least one request per Step, so progress is guaranteed.
	TickBudget sim.Cycles
	// RequestCycles is the modeled application compute charged inside the
	// enclave for every request, on top of the memory-hierarchy charges.
	RequestCycles sim.Cycles
	// Admission enables the tenant-aware admission controller (see
	// admission.go): per-tenant token buckets, weighted-fair dequeue,
	// bounded queues with shed replies, hot-key splitting. Nil disables
	// admission entirely — Step behaves exactly as before.
	Admission *AdmissionConfig
}

// bootResult is what a boot path yields: an initialized enclave with its
// heap arena, the quoting identity of its platform, and a teardown hook.
type bootResult struct {
	enc    *enclave.Enclave
	arena  *enclave.Arena
	quoter *attest.Quoter
	stop   func()
}

// ReplicaSet is a replicated micro-service on the application plane.
// It implements orchestrator.Launcher, so an orchestrator scales it
// out/in and restarts replicas; each *Replica implements
// orchestrator.Replica for sampling.
type ReplicaSet struct {
	name    string
	bus     *eventbus.Bus
	broker  *attest.KeyBroker
	handler Handler
	cfg     ReplicaSetConfig
	boot    func(id string) (bootResult, error)

	front *frontEnd

	// adm is the admission controller (nil unless cfg.Admission is set);
	// lastShed is the shed count of the last Step, the overload signal
	// Sample() reports to the orchestrator.
	adm      *admission
	lastShed atomic.Uint64

	// shedUnreachable counts requests shed because their route landed on
	// an unreachable (partitioned-away) replica. servedViaUnreachable is
	// the fail-open tripwire: requests an unreachable replica actually
	// served — structurally zero (routing diverts and serveTick refuses),
	// gated to zero by the bench harness.
	shedUnreachable      atomic.Uint64
	servedViaUnreachable atomic.Uint64

	mu       sync.Mutex
	replicas []*Replica
	requeue  []request
	nextID   int
	launched int
	retired  retiredTotals
}

// retiredTotals accumulates the final accounting of retired replicas so
// set-lifetime totals include every replica that ever served.
type retiredTotals struct {
	cycles    sim.Cycles
	maxCycles sim.Cycles
	faults    uint64
	served    uint64
	failed    uint64
}

// frontEnd is the set's attested dispatcher: the enclave that holds the
// topic stream keys and owns the bus endpoints. box holds the service
// request key, used only to seal shed replies (the front end never opens
// request bodies — routing stays on cleartext metadata).
type frontEnd struct {
	enc     *enclave.Enclave
	stop    func()
	sub     *eventbus.Subscriber
	pub     *eventbus.Publisher
	box     *cryptbox.Box
	shedAAD []byte // "shed|<name>", precomputed once per set
}

// NewReplicaSet builds a direct-mode replica set: each replica boots on a
// fresh simulated platform (enclave.NewSignedWorker under the service's
// ReplicaSigner), attests through svc, and obtains its keys exclusively
// from kb. Construction fails if any replica is denied keys.
func NewReplicaSet(bus *eventbus.Bus, svc *attest.Service, kb *attest.KeyBroker, name string, handler Handler, cfg ReplicaSetConfig) (*ReplicaSet, error) {
	size := cfg.EnclaveBytes
	if size == 0 {
		size = 8 << 20
	}
	boot := func(id string) (bootResult, error) {
		enc, arena, err := enclave.NewSignedWorker(cfg.Platform, size, name, ReplicaSigner(name))
		if err != nil {
			return bootResult{}, err
		}
		quoter, err := svc.Provision(enc.Platform(), id)
		if err != nil {
			enc.Destroy()
			return bootResult{}, err
		}
		return bootResult{enc: enc, arena: arena, quoter: quoter, stop: enc.Destroy}, nil
	}
	return newReplicaSet(bus, kb, name, handler, cfg, boot)
}

// ContainerSpec names the image a container-mode replica set boots from.
type ContainerSpec struct {
	// Registry is the (untrusted) pull source replicas pull from: the
	// in-process registry or its HTTP client.
	Registry container.PullSource
	// CAS releases each replica's SCF during sconert.Boot.
	CAS *sconert.CAS
	// Image / Tag name the secure image.
	Image string
	Tag   string
	// Cache is the node-local blob cache the replicas' engines share, so
	// only the first boot fetches chunks from the registry. Nil gets a
	// cache private to this replica set.
	Cache *container.BlobCache
}

// NewContainerReplicaSet builds a replica set whose replicas launch
// through the full secure-container path: every launch allocates a fresh
// node (container.LaunchNode), pulls and verifies the image, builds the
// enclave, boots the SCONE runtime — attestation #1, releasing the SCF —
// and then fetches its service keys from kb — attestation #2, releasing
// the request and stream keys. This is the paper's complete boot sequence:
// attest → key release → subscribe.
func NewContainerReplicaSet(bus *eventbus.Bus, svc *attest.Service, kb *attest.KeyBroker, name string, handler Handler, cfg ReplicaSetConfig, spec ContainerSpec) (*ReplicaSet, error) {
	if spec.Registry == nil || spec.CAS == nil || spec.Image == "" {
		return nil, errors.New("microsvc: incomplete container spec")
	}
	if spec.Cache == nil {
		spec.Cache = container.NewBlobCache()
	}
	boot := func(id string) (bootResult, error) {
		eng, err := container.LaunchNode(svc, id, spec.Registry, cfg.Platform)
		if err != nil {
			return bootResult{}, err
		}
		eng.Cache = spec.Cache
		c, err := eng.Run(spec.Image, spec.Tag, spec.CAS)
		if err != nil {
			return bootResult{}, err
		}
		enc := c.Runtime.Enclave()
		arena, err := enc.HeapArena()
		if err != nil {
			c.Stop()
			return bootResult{}, err
		}
		return bootResult{enc: enc, arena: arena, quoter: eng.Quoter, stop: c.Stop}, nil
	}
	return newReplicaSet(bus, kb, name, handler, cfg, boot)
}

func newReplicaSet(bus *eventbus.Bus, kb *attest.KeyBroker, name string, handler Handler, cfg ReplicaSetConfig, boot func(string) (bootResult, error)) (*ReplicaSet, error) {
	if handler == nil {
		return nil, errors.New("microsvc: nil handler")
	}
	if bus == nil || kb == nil {
		return nil, errors.New("microsvc: replica set needs a bus and a key broker")
	}
	if cfg.InTopic == "" || cfg.OutTopic == "" {
		return nil, errors.New("microsvc: replica set needs in and out topics")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	rs := &ReplicaSet{
		name: name, bus: bus, broker: kb,
		handler: handler, cfg: cfg, boot: boot,
	}
	if cfg.Admission != nil {
		rs.adm = newAdmission(*cfg.Admission)
	}
	fe, err := rs.bootFront()
	if err != nil {
		return nil, err
	}
	rs.front = fe
	for i := 0; i < cfg.Replicas; i++ {
		if _, err := rs.Launch(); err != nil {
			rs.Stop()
			return nil, err
		}
	}
	return rs, nil
}

// bootFront boots the dispatcher through the same attested sequence as a
// replica and wires its accounted bus endpoints.
func (rs *ReplicaSet) bootFront() (*frontEnd, error) {
	br, err := rs.boot(rs.name + "/fe")
	if err != nil {
		return nil, err
	}
	keys, err := attest.FetchServiceKeys(br.enc, br.quoter, rs.broker, rs.name)
	if err != nil {
		br.stop()
		return nil, fmt.Errorf("microsvc %s: front-end key release: %w", rs.name, err)
	}
	inKey, ok := keys.Topic(rs.cfg.InTopic)
	if !ok {
		br.stop()
		return nil, fmt.Errorf("microsvc %s: no stream key released for topic %s", rs.name, rs.cfg.InTopic)
	}
	outKey, ok := keys.Topic(rs.cfg.OutTopic)
	if !ok {
		br.stop()
		return nil, fmt.Errorf("microsvc %s: no stream key released for topic %s", rs.name, rs.cfg.OutTopic)
	}
	acct := enclave.Accounting{Mem: br.enc.Memory(), Arena: br.arena}
	sub, err := eventbus.OpenSubscriber(eventbus.EndpointConfig{
		Bus: rs.bus, Topic: rs.cfg.InTopic, Key: inKey, Accounting: acct,
	})
	if err != nil {
		br.stop()
		return nil, err
	}
	pub, err := eventbus.OpenPublisher(eventbus.EndpointConfig{
		Bus: rs.bus, Topic: rs.cfg.OutTopic, Key: outKey, Accounting: acct,
	})
	if err != nil {
		sub.Close()
		br.stop()
		return nil, err
	}
	box, err := cryptbox.NewBox(keys.Request)
	if err != nil {
		sub.Close()
		br.stop()
		return nil, err
	}
	return &frontEnd{
		enc: br.enc, stop: br.stop, sub: sub, pub: pub, box: box,
		shedAAD: shedAADFor(rs.name),
	}, nil
}

// Replica is one enclave-per-replica worker of a ReplicaSet. All counters
// are atomics; sampling never blocks the serve path.
type Replica struct {
	id    string
	set   *ReplicaSet
	enc   *enclave.Enclave
	box   *cryptbox.Box
	stage uint64
	stop  func()

	// reqAAD / respAAD are the service-bound frame AADs, precomputed at
	// launch so the serve loop never rebuilds the strings per request.
	reqAAD  []byte
	respAAD []byte

	served      atomic.Uint64
	failed      atomic.Uint64
	lastCycles  atomic.Uint64
	lastServed  atomic.Uint64
	crashed     atomic.Bool
	retired     atomic.Bool
	unreachable atomic.Bool
	slow        atomic.Uint64

	mu      sync.Mutex
	pending []request
}

// launchReplica runs the boot sequence for one replica.
func (rs *ReplicaSet) launchReplica(id string) (*Replica, error) {
	br, err := rs.boot(id)
	if err != nil {
		return nil, err
	}
	keys, err := attest.FetchServiceKeys(br.enc, br.quoter, rs.broker, rs.name)
	if err != nil {
		br.stop()
		return nil, fmt.Errorf("microsvc %s: replica %s key release: %w", rs.name, id, err)
	}
	box, err := cryptbox.NewBox(keys.Request)
	if err != nil {
		br.stop()
		return nil, err
	}
	return &Replica{
		id: id, set: rs, enc: br.enc, box: box,
		stage:   br.arena.Alloc(replicaStageBytes),
		stop:    br.stop,
		reqAAD:  reqAADFor(rs.name),
		respAAD: respAADFor(rs.name),
	}, nil
}

// Launch boots a new attested replica and adds it to the routing order.
// It implements orchestrator.Launcher.
func (rs *ReplicaSet) Launch() (orchestrator.Replica, error) {
	rs.mu.Lock()
	rs.nextID++
	id := fmt.Sprintf("%s/r%04d", rs.name, rs.nextID)
	rs.mu.Unlock()
	r, err := rs.launchReplica(id)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	rs.replicas = append(rs.replicas, r)
	rs.launched++
	rs.mu.Unlock()
	return r, nil
}

// Retire removes a replica from the routing order, requeues its unserved
// requests for redistribution on the next Step, folds its final accounting
// into the set-lifetime totals, and tears its enclave down. It implements
// orchestrator.Launcher.
func (rs *ReplicaSet) Retire(id string) error {
	rs.mu.Lock()
	idx := -1
	for i, r := range rs.replicas {
		if r.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		rs.mu.Unlock()
		return fmt.Errorf("microsvc %s: no replica %s", rs.name, id)
	}
	r := rs.replicas[idx]
	rs.replicas = append(rs.replicas[:idx:idx], rs.replicas[idx+1:]...)
	r.retired.Store(true)
	r.mu.Lock()
	rs.requeue = append(rs.requeue, r.pending...)
	r.pending = nil
	r.mu.Unlock()
	c := r.enc.Memory().Cycles()
	rs.retired.cycles += c
	if c > rs.retired.maxCycles {
		rs.retired.maxCycles = c
	}
	rs.retired.faults += r.enc.Memory().Faults()
	rs.retired.served += r.served.Load()
	rs.retired.failed += r.failed.Load()
	rs.mu.Unlock()
	r.stop()
	return nil
}

// Stop tears the whole set down: every replica and the front-end. The
// final accounting of live replicas is folded into the retired totals
// first, so Totals() after Stop still reports set-lifetime figures.
func (rs *ReplicaSet) Stop() {
	rs.mu.Lock()
	reps := rs.replicas
	rs.replicas = nil
	for _, r := range reps {
		r.retired.Store(true)
		c := r.enc.Memory().Cycles()
		rs.retired.cycles += c
		if c > rs.retired.maxCycles {
			rs.retired.maxCycles = c
		}
		rs.retired.faults += r.enc.Memory().Faults()
		rs.retired.served += r.served.Load()
		rs.retired.failed += r.failed.Load()
	}
	rs.mu.Unlock()
	for _, r := range reps {
		r.stop()
	}
	if rs.front != nil {
		rs.front.sub.Close()
		rs.front.stop()
	}
}

// Name returns the service name.
func (rs *ReplicaSet) Name() string { return rs.name }

// Replicas returns the current replica count.
func (rs *ReplicaSet) Replicas() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.replicas)
}

// ReplicaHandles returns the current replicas as orchestrator handles, in
// routing order — what orchestrator.New takes as the initial set.
func (rs *ReplicaSet) ReplicaHandles() []orchestrator.Replica {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]orchestrator.Replica, len(rs.replicas))
	for i, r := range rs.replicas {
		out[i] = r
	}
	return out
}

// Backlog is the set's total unserved work: frames still queued on the
// bus (via the subscriber's Depth hook — one lock acquisition, nothing
// drained), requeued requests awaiting redistribution, and every
// replica's pending queue.
func (rs *ReplicaSet) Backlog() int {
	n := rs.front.sub.Depth()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n += len(rs.requeue)
	if rs.adm != nil {
		n += rs.adm.depth()
	}
	for _, r := range rs.replicas {
		n += r.Depth()
	}
	return n
}

// InjectCrash marks the i-th replica (routing order) crashed: it stops
// serving and samples unhealthy until the orchestrator replaces it.
// Returns the replica ID, or "" when the index is out of range.
func (rs *ReplicaSet) InjectCrash(i int) string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if i < 0 || i >= len(rs.replicas) {
		return ""
	}
	rs.replicas[i].crashed.Store(true)
	return rs.replicas[i].id
}

// InjectCrashID crashes the replica with the given ID (the node-failure
// path, where the cluster knows which replicas lived on the dead node).
// Returns whether the ID named a live replica.
func (rs *ReplicaSet) InjectCrashID(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.replicas {
		if r.id == id {
			r.crashed.Store(true)
			return true
		}
	}
	return false
}

// SetReplicaUnreachable marks the replica with the given ID unreachable
// (a network partition cut its node off) or reachable again. An
// unreachable replica sheds everything routed to it, refuses to serve its
// queue, and samples unhealthy until the orchestrator reschedules it.
// Returns whether the ID named a live replica.
func (rs *ReplicaSet) SetReplicaUnreachable(id string, v bool) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.replicas {
		if r.id == id {
			r.unreachable.Store(v)
			return true
		}
	}
	return false
}

// UnreachableStats returns the partition counters: requests shed because
// their route landed on an unreachable replica, and the fail-open
// tripwire of requests an unreachable replica actually served (must stay
// zero).
func (rs *ReplicaSet) UnreachableStats() (shed, served uint64) {
	return rs.shedUnreachable.Load(), rs.servedViaUnreachable.Load()
}

// InjectSlow charges the i-th replica (routing order) extra cycles per
// request — a degraded node or a noisy neighbour. Returns the replica ID,
// or "" when the index is out of range.
func (rs *ReplicaSet) InjectSlow(i int, extra sim.Cycles) string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if i < 0 || i >= len(rs.replicas) {
		return ""
	}
	rs.replicas[i].slow.Store(uint64(extra))
	return rs.replicas[i].id
}

// PlaneTotals is the set-lifetime accounting across every replica ever
// launched (live and retired). SerialCycles is the summed per-replica
// total; CriticalCycles the largest single replica's — the shard-per-core
// decomposition the storage and routing layers also report.
type PlaneTotals struct {
	SerialCycles   sim.Cycles
	CriticalCycles sim.Cycles
	Faults         uint64
	Served         uint64
	Failed         uint64
	Launched       int
	Live           int
	FrontCycles    sim.Cycles
	FrontFaults    uint64
	// Shed / Splits are admission-controller lifetime totals (zero when
	// admission is disabled).
	Shed   uint64
	Splits uint64
}

// Totals returns the set-lifetime accounting.
func (rs *ReplicaSet) Totals() PlaneTotals {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t := PlaneTotals{
		SerialCycles:   rs.retired.cycles,
		CriticalCycles: rs.retired.maxCycles,
		Faults:         rs.retired.faults,
		Served:         rs.retired.served,
		Failed:         rs.retired.failed,
		Launched:       rs.launched,
		Live:           len(rs.replicas),
	}
	for _, r := range rs.replicas {
		c := r.enc.Memory().Cycles()
		t.SerialCycles += c
		if c > t.CriticalCycles {
			t.CriticalCycles = c
		}
		t.Faults += r.enc.Memory().Faults()
		t.Served += r.served.Load()
		t.Failed += r.failed.Load()
	}
	t.FrontCycles = rs.front.enc.Memory().Cycles()
	t.FrontFaults = rs.front.enc.Memory().Faults()
	if rs.adm != nil {
		t.Shed = rs.adm.shedAll
		t.Splits = rs.adm.splits
	}
	return t
}

// StatsName implements stats.Source.
func (rs *ReplicaSet) StatsName() string { return "plane" }

// Snapshot implements stats.Source: the set-lifetime totals as a flat
// metric map.
func (rs *ReplicaSet) Snapshot() map[string]float64 {
	t := rs.Totals()
	shedU, servedU := rs.UnreachableStats()
	return map[string]float64{
		"serial_cycles":          float64(t.SerialCycles),
		"critical_cycles":        float64(t.CriticalCycles),
		"faults":                 float64(t.Faults),
		"served":                 float64(t.Served),
		"failed":                 float64(t.Failed),
		"launched":               float64(t.Launched),
		"live":                   float64(t.Live),
		"front_cycles":           float64(t.FrontCycles),
		"front_faults":           float64(t.FrontFaults),
		"shed":                   float64(t.Shed),
		"splits":                 float64(t.Splits),
		"shed_unreachable":       float64(shedU),
		"served_via_unreachable": float64(servedU),
	}
}

// AdmissionStats returns a snapshot of the admission controller — queue
// depths, per-tenant admit/dispatch/shed counters. The zero snapshot when
// admission is disabled.
func (rs *ReplicaSet) AdmissionStats() AdmissionSnapshot {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.adm == nil {
		return AdmissionSnapshot{ByTenant: map[string]TenantSnapshot{}}
	}
	return rs.adm.snapshot()
}

// LatencyPercentiles reduces the admission queue-wait histogram to
// p50/p95/max in sim-ms (zeros when admission is disabled).
func (rs *ReplicaSet) LatencyPercentiles() (p50, p95, max float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.adm == nil {
		return 0, 0, 0
	}
	return rs.adm.latencyPercentiles(rs.adm.cfg.TickMillis)
}

// ID implements orchestrator.Replica.
func (r *Replica) ID() string { return r.id }

// Depth returns the replica's pending-queue length.
func (r *Replica) Depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Stats returns the replica's request counters without blocking the serve
// path.
func (r *Replica) Stats() Stats {
	return Stats{Served: r.served.Load(), Failed: r.failed.Load()}
}

// Sample implements orchestrator.Replica: queue depth, the per-request
// service cost of the last serve tick, and health.
func (r *Replica) Sample() orchestrator.Metrics {
	m := orchestrator.Metrics{
		QueueDepth: r.Depth(),
		Healthy:    !r.crashed.Load() && !r.unreachable.Load(),
		// Shed is a set-level figure (admission happens before routing);
		// every replica reports the same last-step count, per the
		// orchestrator.Metrics contract.
		Shed: int(r.set.lastShed.Load()),
	}
	if n := r.lastServed.Load(); n > 0 {
		m.ServiceCycles = sim.Cycles(r.lastCycles.Load() / n)
	}
	return m
}

// enqueue appends a routed request to the replica's pending queue.
func (r *Replica) enqueue(q request) {
	r.mu.Lock()
	r.pending = append(r.pending, q)
	r.mu.Unlock()
}

// chargeStage charges n bytes through the replica's staging window in
// window-sized chunks, within the given span.
func (r *Replica) chargeStage(sp *enclave.Span, n int, write bool) {
	for n > 0 {
		c := n
		if c > replicaStageBytes {
			c = replicaStageBytes
		}
		sp.Access(r.stage, c, write)
		n -= c
	}
}

// serveOne processes one request inside the replica's enclave: charge the
// sealed request through the staging window, open it with the request key,
// run the handler, seal and charge the reply. Returns the complete reply
// frame (nil for a dropped or reply-less message) and whether the request
// counted as served. The reply echoes the request's routing key and tenant
// envelope.
func (r *Replica) serveOne(q request) ([]byte, bool) {
	mem := r.enc.Memory()
	sp := mem.BeginSpan()
	r.chargeStage(sp, len(q.sealed), false)
	if extra := r.slow.Load(); extra > 0 {
		sp.ChargeCPU(sim.Cycles(extra))
	}
	if rc := r.set.cfg.RequestCycles; rc > 0 {
		sp.ChargeCPU(rc)
	}
	body, err := r.box.Open(q.sealed, r.reqAAD)
	if err != nil {
		sp.End()
		r.failed.Add(1)
		return nil, false
	}
	resp, err := r.set.handler(body)
	if err != nil {
		sp.End()
		r.failed.Add(1)
		return nil, false
	}
	var frame []byte
	if len(resp) > 0 {
		frame, err = sealFrame(r.box, q.key, q.meta, 0, resp, r.respAAD)
		if err != nil {
			sp.End()
			r.failed.Add(1)
			return nil, false
		}
		r.chargeStage(sp, len(frame)-frameV2HeaderLen(q.key, q.meta), true)
	}
	sp.End()
	r.served.Add(1)
	return frame, true
}

// serveTick serves pending requests up to the set's tick budget (always at
// least one when any are pending), entering the enclave once for the whole
// batch. It returns the sealed reply frames in request order plus the
// served/failed counts of this tick.
func (r *Replica) serveTick() (replies [][]byte, served, failed int) {
	if r.crashed.Load() || r.unreachable.Load() {
		// Crashed replicas are gone; unreachable ones are cut off by a
		// partition — neither may serve. An unreachable replica's pending
		// queue stays put until the orchestrator retires it (requeue).
		r.lastCycles.Store(0)
		r.lastServed.Store(0)
		return nil, 0, 0
	}
	// Take ownership of the current queue: a Retire racing with this tick
	// requeues only what it can see, so no request is ever served twice or
	// trimmed away unserved.
	r.mu.Lock()
	pending := r.pending
	r.pending = nil
	r.mu.Unlock()
	if len(pending) == 0 {
		r.lastCycles.Store(0)
		r.lastServed.Store(0)
		return nil, 0, 0
	}
	mem := r.enc.Memory()
	start := mem.Cycles()
	if err := r.enc.EEnter(); err != nil {
		// The enclave is gone (torn down by a racing Retire, or broken).
		// Mark the replica unhealthy and hand the snapshot back so the
		// work is requeued, not stranded.
		r.crashed.Store(true)
		r.mu.Lock()
		r.pending = append(pending, r.pending...)
		r.mu.Unlock()
		r.requeueIfRetired()
		return nil, 0, 0
	}
	budget := r.set.cfg.TickBudget
	n := 0
	for _, q := range pending {
		frame, ok := r.serveOne(q)
		n++
		if ok {
			served++
			if frame != nil {
				replies = append(replies, frame)
			}
		} else {
			failed++
		}
		if budget > 0 && mem.Cycles()-start >= budget {
			break
		}
	}
	_ = r.enc.EExit()
	// Hand the unserved remainder back, ahead of anything enqueued since
	// the snapshot. If the replica was retired mid-tick its queue belongs
	// to the set now — requeue rather than strand the work.
	rest := pending[n:len(pending):len(pending)]
	r.mu.Lock()
	r.pending = append(rest, r.pending...)
	r.mu.Unlock()
	r.requeueIfRetired()
	r.lastCycles.Store(uint64(mem.Cycles() - start))
	r.lastServed.Store(uint64(served))
	if served > 0 && r.unreachable.Load() {
		// Fail-open tripwire: an unreachable replica served traffic. The
		// entry guard makes this structurally impossible; the bench gate
		// pins the counter to zero so a future regression cannot silently
		// serve through a partition.
		r.set.servedViaUnreachable.Add(uint64(served))
	}
	return replies, served, failed
}

// requeueIfRetired moves the replica's queue back to the set when a Retire
// raced with the current serve tick — its queue belongs to the set now.
func (r *Replica) requeueIfRetired() {
	if !r.retired.Load() {
		return
	}
	rs := r.set
	rs.mu.Lock()
	r.mu.Lock()
	rs.requeue = append(rs.requeue, r.pending...)
	r.pending = nil
	r.mu.Unlock()
	rs.mu.Unlock()
}

// StepStats summarises one Step.
type StepStats struct {
	// Polled counts frames drained from the bus this step.
	Polled int
	// Dropped counts malformed frames discarded during routing.
	Dropped int
	// Routed counts requests distributed to replicas (polled + requeued).
	Routed int
	// Served / Failed count requests processed this step.
	Served int
	Failed int
	// Replies counts reply frames published to the out topic.
	Replies int
	// Shed counts arrivals the admission controller rejected this step
	// (each answered with a retry-after reply; always 0 without admission).
	Shed int
}

// Step runs one serve tick of the whole set: the front-end polls a batch
// of sealed frames off the bus, routes them (plus any requeued work) to
// replicas by routing-key hash over the current replica order, the
// replicas serve their pending queues within the tick budget — in parallel
// across at most Workers goroutines, each replica on its own simulated
// platform — and the replies are published in replica order.
func (rs *ReplicaSet) Step() (StepStats, error) {
	var st StepStats
	frames, err := rs.front.sub.PollBatch(rs.cfg.PollBatch)
	if err != nil {
		return st, err
	}
	st.Polled = len(frames)

	rs.mu.Lock()
	reqs := rs.requeue
	rs.requeue = nil
	reps := append([]*Replica(nil), rs.replicas...)
	adm := rs.adm
	rs.mu.Unlock()
	var arrivals []request
	for _, f := range frames {
		q, shedFlag, err := decodeFrameAny(f)
		if err != nil || shedFlag {
			// A malformed frame means a buggy or malicious holder of the
			// topic key (the topic seal already authenticated); a shed
			// reply on the in topic is equally out of place. Drop it
			// and keep going: aborting here would lose the requeued work
			// and every valid frame of the batch.
			st.Dropped++
			continue
		}
		arrivals = append(arrivals, q)
	}

	// Admission: arrivals pass the controller — queued per tenant, shed
	// with a retry-after reply on overflow, dispatched weighted-fair.
	// Requeued work (reqs) was already admitted once and bypasses the
	// controller: no double token charge, and no admitted request is ever
	// shed after the fact.
	var sheds []shedVerdict
	var dispatched []request
	if adm != nil {
		rs.mu.Lock()
		adm.beginStep()
		for _, q := range arrivals {
			if shed, retry := adm.offer(q); shed {
				sheds = append(sheds, shedVerdict{req: q, retryAfterMS: retry})
			}
		}
		if len(reps) > 0 {
			dispatched = adm.dispatch()
		}
		rs.mu.Unlock()
		st.Shed = len(sheds)
		rs.lastShed.Store(uint64(len(sheds)))
	} else {
		dispatched = arrivals
	}

	if len(reps) == 0 {
		// With admission, admitted-but-undispatched arrivals stay inside
		// the controller's tenant queues; without it they join the requeue
		// list like before.
		if adm == nil {
			reqs = append(reqs, dispatched...)
			dispatched = nil
		}
		if len(reqs) > 0 {
			rs.mu.Lock()
			rs.requeue = append(reqs, rs.requeue...)
			rs.mu.Unlock()
		}
		pubErr := rs.publishSheds(sheds, &st)
		if len(reqs) > 0 || (adm != nil && len(arrivals) > len(sheds)) {
			return st, ErrNoLiveReplicas
		}
		return st, pubErr
	}
	// deliver hands a routed request to its replica — unless the replica
	// is unreachable (its node partitioned away), in which case the
	// request is shed deterministically with a retry-after reply instead
	// of vanishing into a queue nothing will serve.
	unreachableRetry := 1.0
	if adm != nil && adm.cfg.TickMillis > 0 {
		unreachableRetry = adm.cfg.TickMillis
	}
	routed := 0
	deliver := func(q request, idx int) {
		r := reps[idx]
		if r.unreachable.Load() {
			sheds = append(sheds, shedVerdict{req: q, retryAfterMS: unreachableRetry})
			rs.shedUnreachable.Add(1)
			return
		}
		r.enqueue(q)
		routed++
	}
	for _, q := range reqs {
		deliver(q, routeIndex(q.key, len(reps)))
	}
	if adm != nil && len(dispatched) > 0 {
		// Hot-key routing works off a depth snapshot taken after the
		// requeue pass, so the split decision sees the straggler backlog
		// but never the effects of this step's own parallel serve.
		depths := make([]int, len(reps))
		for i, r := range reps {
			depths[i] = r.Depth()
		}
		rs.mu.Lock()
		for _, q := range dispatched {
			deliver(q, adm.routeFor(q.key, len(reps), depths))
		}
		rs.mu.Unlock()
	} else {
		for _, q := range dispatched {
			deliver(q, routeIndex(q.key, len(reps)))
		}
	}
	st.Routed = routed
	st.Shed = len(sheds)
	rs.lastShed.Store(uint64(len(sheds)))

	workers := rs.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type tickResult struct {
		replies        [][]byte
		served, failed int
	}
	results := make([]tickResult, len(reps))
	sim.ParallelFor(len(reps), workers, func(i int) {
		var res tickResult
		res.replies, res.served, res.failed = reps[i].serveTick()
		results[i] = res
	})
	var pubErr error
	for _, res := range results {
		st.Served += res.served
		st.Failed += res.failed
		if len(res.replies) == 0 {
			continue
		}
		// A publish failure (bus closed, back-pressure) must not discard
		// the later replicas' replies unattempted: keep flushing and
		// report the first error.
		if _, err := rs.front.pub.PublishBatch(res.replies); err != nil {
			if pubErr == nil {
				pubErr = err
			}
			continue
		}
		st.Replies += len(res.replies)
	}
	if err := rs.publishSheds(sheds, &st); err != nil && pubErr == nil {
		pubErr = err
	}
	return st, pubErr
}

// publishSheds seals and publishes the step's shed replies, after the
// serve replies: each carries the retry-after hint (8-byte float64 sim-ms)
// sealed under the shed AAD, framed with the shed flag and the original
// request's tenant envelope so the client can correlate.
func (rs *ReplicaSet) publishSheds(sheds []shedVerdict, st *StepStats) error {
	if len(sheds) == 0 {
		return nil
	}
	frames := make([][]byte, 0, len(sheds))
	var firstErr error
	for _, sv := range sheds {
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], math.Float64bits(sv.retryAfterMS))
		frame, err := sealFrame(rs.front.box, sv.req.key, sv.req.meta, frameFlagShed, body[:], rs.front.shedAAD)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		frames = append(frames, frame)
	}
	if len(frames) > 0 {
		if _, err := rs.front.pub.PublishBatch(frames); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			st.Replies += len(frames)
		}
	}
	return firstErr
}

// routeIndex hashes a routing key onto a replica slot (FNV-1a mod n) — a
// pure function of the key and the replica order, so routing is identical
// across runs and worker counts.
func routeIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}
