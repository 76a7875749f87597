// Package securecloud is a from-scratch Go reproduction of "SecureCloud:
// Secure Big Data Processing in Untrusted Clouds" (Kelbert et al.,
// DATE 2017): a layered platform for running big data applications as
// attested micro-services inside (simulated) Intel SGX enclaves on
// untrusted cloud infrastructure.
//
// The library lives under internal/ in bottom-up layers:
//
//   - sim, cryptbox, enclave, attest, shard — the substrates:
//     deterministic cycle accounting, authenticated encryption, a
//     cycle-cost SGX v1 simulator (EPC paging, MEE, lifecycle,
//     measurement, sealing), remote attestation, and the shard-per-core
//     set the concurrent layers are built on.
//   - fsshield, shield, sconert, image, registry, container — the SCONE
//     secure-container layer: protected file systems, shielded syscalls,
//     the SCF/CAS startup protocol, and the secure Docker workflow.
//   - eventbus, microsvc, scbr — the micro-service and messaging layer,
//     including the SCBR content-based router whose EPC-paging behaviour
//     is the paper's Figure 3.
//   - kvstore, mapreduce, genpack, smartgrid — the big data layer: secure
//     structured storage, secure map/reduce, the GenPack generational
//     scheduler (the 23% energy claim) and the smart-grid use cases.
//
// There is no facade over them: examples/quickstart and cmd/scone-run
// write the whole workflow out — owner side (image.Builder,
// container.SCONEClient, sconert.CAS), cloud side (registry,
// container.LaunchNode, Engine.Run) — and the application plane boots its
// replicas through the same calls.
//
// The benchmarks in bench_test.go regenerate every quantitative statement
// of the paper, each reporting the simulated-cycle metrics its figure or
// claim is about: run `go test -bench . .` and read them beside the
// paper's values quoted in each benchmark's comment.
//
// # Cost model & performance
//
// All simulated costs flow through one hot path: enclave.Memory.Access
// walks the cache lines of an access, consulting the shared LLC and EPC
// models, and charges cycles into the view's per-cause ledger — the one
// record of simulated cost, which every gated metric and golden reads.
// That path is engineered so the simulator's own overhead stays far below
// the costs it models:
//
//   - A fixed cause table. The ledger's categories ("llc-hit", "mee",
//     "epc-fault", ...) are the cost model's eight events, an unexported
//     enum indexing two small arrays; charging is an array add, and only
//     Breakdown and Events translate to the exported Cause* names.
//
//   - Batched commits. Access accumulates per-cause event counts in stack
//     locals while it walks lines, then commits once: one ledger charge
//     and one fault-counter update per call, instead of three lock
//     acquisitions per 64-byte line. Because every per-event cost is a
//     fixed platform constant, the batched totals are bit-identical to
//     per-line charging — golden tests in internal/enclave and
//     internal/scbr pin this equivalence exactly.
//
//   - One batching API. AccessRange charges one contiguous access; a Span
//     (Memory.BeginSpan ... End) charges any sequence of accesses and CPU
//     costs — a whole index operation, a bucket, a page warm-up walk —
//     under a single platform-lock acquisition and a single commit. A
//     structure's one accounting handle is its arena: a nil arena hands
//     out address 0 and a nil view, and a nil view opens a nil span, which
//     charges nothing, so the SCBR index, kvstore and eventbus run one
//     code path whether or not they are accounted; eventbus charges each
//     batch's copy through its staging window in one span.
//
//   - An O(ways) LLC that costs what it touches. The set-associative
//     cache keeps each set as one recency-order word and its tags, in
//     chunks of 16 sets allocated on a chunk's first access, with tags
//     stored complemented so a zero way is empty. The order word lists
//     the ways from most to least recently used, a nibble each: a hit on
//     the MRU way is one compare, any other touch moves one nibble to
//     the front, and eviction takes the first empty way, else the last
//     nibble — exactly classic LRU. A per-page bitmap of cached lines
//     makes liveness exact, so an EPC eviction empties only the ways of
//     its page's lines. A full default LLC is 1.1 MB of metadata. The
//     EPC's CLOCK ring likewise grows one slot when the hand first
//     reaches it, so a platform that touches a few thousand sets and
//     pages costs tens of KiB, not a whole machine's way array and
//     ring.
//
// The ledger's running total is an atomic, so Memory.Cycles never takes
// the platform mutex. Fault counters and the ledger reset together under
// that mutex (Memory.ResetAccounting), so harnesses never observe a
// half-reset view.
//
// A practical consequence: wall-clock ns/op in the benchmarks is now a
// meaningful signal of simulator speed itself (the modeled costs are the
// sim-cycle metrics). Host time is measured by benchmark/ alone, with
// repeated, interleaved parent/change runs; cmd/bench gates only the
// sim-cycle metrics.
//
// # Concurrency & CI gates
//
// The routing, storage and compute layers all run shard-per-core while
// keeping every simulated figure deterministic. The pattern is the same in
// each layer, and internal/shard is its one implementation: a shard.Set
// partitions the data structure, gives every partition its own simulated
// platform + enclave (enclave.NewWorker), keeps a per-shard lock and cycle
// ledger, and fans reads/batches out through a bounded worker set
// (sim.ParallelFor); shard.Spread turns two ledger readings into the
// serial-sum vs critical-path decomposition. Each layer write-locks only
// the home partition and charges reads through read-only snapshot
// accounting:
//
//   - Routing: the broker's subscription store is a scbr.ShardedIndex —
//     P containment forests keyed by subscription ID (ID mod P), each on
//     its own simulated platform + enclave, the partitioned-broker
//     deployment where every core owns a slice of the filter set.
//     Insert/Unsubscribe write-lock only the home shard; Publish matches
//     all shards through a bounded worker fan-out and merges results into
//     ascending-ID order. Unsubscribe does not search its forest: each
//     Index keeps an id → node locator (a paged direct-mapped table, 8 B
//     per ID, carved from the tail of the shard's arena with
//     enclave.Arena.AllocTail, charged and counted in MemoryBytes like
//     the nodes) and a parent link per node, so Index.Remove costs one
//     slot read, one header read and one header write per neighbour
//     (parent, lifted children) whatever the store size — on a store of
//     1.5 × the EPC a handful of page faults instead of ten thousand.
//     Records and locator pages a removal releases are reused by the next
//     registration of the same size, so churn does not grow the arena.
//     The match paths never touch the locator.
//
//   - Storage: kvstore.ShardedStore partitions the secure structured data
//     store by key hash (FNV mod P). Point reads (Get/GetBatch) charge
//     read-only snapshot spans under the shard's read lock; PutBatch and
//     GetBatch fan out across shards while applying each shard's sub-batch
//     in slice order, so batch results and per-shard costs are independent
//     of the worker count. Property tests pin ShardedStore ≡ Store
//     results and bit-identical per-shard cycles across worker counts for
//     every shard count in {1,2,4,8}.
//
//   - Compute: mapreduce.ParallelSecureEngine runs the secure map/reduce
//     engine enclave-per-worker. The input splits across worker enclaves;
//     every intermediate record (uvarint key length | key | value) is sealed
//     under its partition's key with AAD "shuffle|<job>|<p>" before leaving
//     its enclave; shuffle partitions hash to workers (partition mod
//     Workers) for the reduce phase. Per-phase stats report the summed-worker vs
//     critical-path cycle decomposition — the same scaling statement the
//     sharded broker makes.
//
// In every layer the shard/worker-enclave count is a *topology* parameter
// (it changes placement and therefore the figures) while execution
// parallelism (Workers/MaxParallel) never changes totals — pin the former
// when comparing runs, vary the latter freely.
//
//   - Snapshot match reads. Concurrent matches charge their traversals
//     through enclave.Memory.BeginSnapshotSpan: probes consult — but never
//     mutate — LLC and EPC state, with a span-local overlay so re-touches
//     within one operation behave as hits (as they would after a mutating
//     first touch; evictions a real run might trigger are deferred). A
//     probe works a page at a time: the overlay maps each page the span
//     touched to the bitmap of its lines it touched, and the LLC keeps an
//     exact bitmap of each page's cached lines, so an access's hits on a
//     page are one popcount of its line mask against the two bitmaps. Since
//     nothing mutates, probe totals commute: aggregate sim-cycles and
//     faults are bit-identical for any interleaving and any GOMAXPROCS.
//     The platform mutex is held only for the final ledger commit, so
//     matches on different shards — and on the same shard — run in
//     parallel.
//
//   - What stays under the platform mutex. All mutating accounting: index
//     registrations (ordinary spans hold the shard platform's mutex for
//     the traversal), fault-counter and ledger commits, enclave
//     transitions on the broker's front enclave, and every figure-3 /
//     golden path, which still runs the exact single-threaded model PR 1
//     pinned. Golden tests are unchanged.
//
//   - Determinism guarantees. Single-threaded figures are bit-identical to
//     the committed goldens. The Figure 3 sweep runs its points in turn,
//     each on its own pair of twin platforms. BenchmarkBrokerPublishParallel measures
//     per-op sim-cycles/faults in a sequential pass against the frozen
//     store — identical at every -cpu setting — and reports sim-speedup,
//     the summed-shard-cycles to critical-path (slowest shard) ratio an
//     ideal shard-per-core machine realises.
//
// The hot envelope path pairs this with a compact big-endian publication/
// subscription codec read by internal/codec's bounded Reader (the only
// envelope plaintext: the broker refuses anything else), one AEAD context
// per session built at the handshake,
// pooled scratch buffers, and delivery sealing outside every broker lock.
// The event bus gained PublishBatch/PollBatch (one mutex acquisition per
// batch, one seal per message however many subscribers fan out) and prunes
// per-subscriber lease state on Subscriber.Close.
//
// # Application plane
//
// The attest, microsvc, orchestrator and container layers compose into one
// integrated plane that runs replicated micro-services the way the paper
// describes (§III-B(2), §V-A, §VI). The flow is:
//
//   - Key release (attest.KeyBroker). The owner registers each service's
//     request key and topic stream keys under an attestation policy.
//     Release happens only against a verified quote, over the attested
//     X25519 sealed channel shared with the CAS (attest.SealToVerdict /
//     OpenSealed); there is no unsealed release path, and the ReplicaSet
//     constructors accept a KeyBroker, never raw keys. Verified quotes are
//     cached by (platform, measurement) plus the hash of the exact signed
//     body — a forged quote can never ride a cached verdict — and both
//     service revocation (KeyBroker.Revoke) and platform revocation
//     (Service.Revoke) take effect immediately, cache or no cache.
//
//   - Serve (microsvc.ReplicaSet, the only micro-service runtime). A
//     service runs as N enclave-per-replica workers behind an attested
//     front-end dispatcher. Every component boots the paper's sequence —
//     attest, fetch keys, subscribe — either directly
//     (enclave.NewSignedWorker on a fresh platform) or through the full
//     container path (container.LaunchNode + Engine.Run: image pull,
//     enclave build, SCONE boot with SCF release, then service-key
//     release). Requests and replies travel in one frame format
//     (microsvc/frame.go): a cleartext header — magic, flags, tenant,
//     request id, routing key — then the body sealed under the request
//     key. The front-end routes by key hash over the replica order (key
//     affinity), and bodies are opened only inside the owning replica's
//     enclave under accounting spans. PlaneClient is the owner's end: it
//     seals, sends through a Transport (the bus, or wire's HTTP), and
//     opens replies.
//
//   - Orchestrate (orchestrator + ReplicaSet as Launcher). Each Step is
//     one monitoring tick of a closed simulated-time loop: replicas serve
//     within a cycle budget (sim.MillisToCycles per tick), then Observe
//     samples queue depths (atomic counters plus eventbus
//     Subscriber.Depth — sampling never blocks serving) and service
//     cycles, and reacts the same tick: scale-out past MaxQueueDepth,
//     scale-in when idle, restart on crash and on the straggler rule
//     (Target.MaxServiceCycles). Retired replicas requeue their pending
//     work, so adaptation never loses requests.
//
// Which figures are what: replica count, platform config and routing are
// topology — they change placement and therefore per-replica cycle
// totals. Execution parallelism (ReplicaSetConfig.Workers) is execution —
// each replica owns a whole simulated platform, routing is a pure
// function of key and replica order, and replies flush in replica order,
// so traces and totals are bit-identical at any worker count. The four
// fault-injection scenarios (replica crash, load spike, hot-key skew,
// slow replica; microsvc.DefaultScenarios) pin everything that shapes
// them — seed, load schedule, injections, budgets — so their adaptation
// traces are deterministic artifacts: cmd/bench's app suite re-runs each
// scenario at worker counts 1,2,4,8, reports any trace or total that
// differs as a problem, and gates the per-scenario cycle totals,
// adaptation latencies (in sim-ms) and trace lengths against
// scripts/bench_baseline.json.
//
// # Admission & overload
//
// The plane survives overload by refusing work deterministically instead
// of queueing it unboundedly. Giving ReplicaSetConfig an AdmissionConfig
// puts a tenant-aware admission controller between the front-end's poll
// and the replicas' queues:
//
//   - Tenant envelope. Every frame names a tenant and carries a
//     client-assigned id (PlaneClient.SendTenantIDs; untagged traffic is
//     tenant ""), and replies — served and shed — echo the request's
//     envelope so clients correlate them. Without an AdmissionConfig the
//     tenant is carried but never consulted.
//
//   - Token buckets and weighted-fair dequeue. Each tenant has a
//     TenantPolicy (Weight, Rate, Burst, MaxQueue); buckets refill once
//     per Step and dispatch proceeds in weighted rounds over the sorted
//     tenant order, so shares are a pure function of config and arrival
//     order — never of map iteration or worker interleaving.
//
//   - Bounded queues and shed. A request arriving past its tenant's
//     MaxQueue or the global MaxGlobalQueue bound is shed at arrival
//     (admitted requests are never shed later) with a sealed reply
//     carrying a deterministic retry-after hint in sim-ms: the time the
//     tenant's queue needs to drain at its refill rate, capped at 64
//     steps. PlaneClient.EnableRetry turns the hints into exponential
//     backoff (hint × 2^attempt), re-sending due retries in (due, id)
//     order; work a retired replica requeues re-enters Step ahead of
//     admission, so it is neither charged twice nor shed twice.
//
//   - Hot-key splitting. When one key exceeds HotKeyPerStep dispatches in
//     a step and its home replica's queue is at least SplitDepth deep,
//     the overflow rotates across SplitWays neighbours — trading strict
//     key affinity for bounded straggler latency, deterministically.
//
// The declarative scenario lab (microsvc.ScenarioSpec, RunSpec) drives
// all of it closed-loop: a spec is pure data — tenants with load
// profiles (uniform, genpack batch-arrival, smartgrid streaming), a
// fault table, an admission config and an assertion table over the
// result's flat metric map — so a new scenario is ~20 lines. RunSpec is
// three steps of one unexported lab: newLab validates the spec up front
// (an unknown fault kind, a fault tick outside the run, a fault whose
// Durability or Cluster plane is missing, and Cluster together with
// Durability are rejected by name before anything boots) and boots the
// plane; step runs one tick; result folds the end-of-run totals into the
// metric table, which is the run's only record of its figures. Tests
// step a lab tick by tick to check request conservation after every
// tick, and a golden file pins every gated spec's full trace hash.
// microsvc.LabScenarios pins eight: overload, noisy-neighbor, cascade,
// slow-network, recovery, crash-state, key-revocation and
// delta-durability; the four orchestrator scenarios are plain specs
// run through the same engine.
// cmd/bench's app suite sweeps every spec across worker counts, requires
// every metric bit-identical, evaluates each spec's assertions, and runs
// the overload spike once more with the controller stripped
// (ScenarioSpec.WithoutAdmission): admission on must bound the final
// backlog, admission off must let it diverge past 8× that bound. A
// failed assertion table, a broken contrast, or drift in any lab metric
// fails CI.
//
// Because the simulated metrics are deterministic, they are CI-gated.
// scripts/ci.sh — run locally or by .github/workflows/ci.yml — enforces,
// beyond fmt/build/vet/test, the nested benchmark/ module's own tests
// (it builds against internal/'s API) and -race on every package:
//
//   - The bench-regression gate (go run ./cmd/bench -check). cmd/bench is
//     the one bench driver: a registry of suites (figure3, cachemiss,
//     broker, kv, app, pull, wire, durability), each returning its
//     deterministic sim-metrics and its problems —
//     the suite's own invariants, checked once, beside the code that
//     produces the figures. The gate is live: it runs the suites from the
//     working tree (about half a minute) and every deterministic metric —
//     sim-cycles/match, faults/match, Figure 3 point values, store and
//     map/reduce cycle totals, scenario tables — must match
//     scripts/bench_baseline.json to one part per billion, with no
//     problem reported. It records no wall-clock figure: host time
//     belongs to benchmark/. Deterministic means deterministic: a drift
//     is a semantic change to the simulator or its data structures, so
//     the gate fails the build rather than averaging.
//
//   - The golden-drift gate: the golden recorders (the enclave and SCBR
//     cost figures, the scenario trace hashes) rerun with
//     GOLDEN_UPDATE=1 in a scratch copy of the tree, and git diff must
//     stay silent on testdata — the committed goldens are exactly what the
//     current code regenerates.
//
//   - The mutant gate (scripts/mutants.sh): each hand mutation committed
//     as scripts/mutants/*.patch is applied in a scratch copy and must
//     fail the test its "# kills:" header names. A mutant that survives,
//     or a patch that no longer applies, fails CI.
//
// To change modeled costs deliberately: regenerate goldens with
// GOLDEN_UPDATE=1 go test ./..., refresh the metric baseline with
// go run ./cmd/bench -update (optionally -suite <names> to touch only the
// suites meant to move), and commit both together so the PR diff shows
// the intended figure changes.
//
// # Durability & recovery
//
// kvstore.DurableStore makes the sharded secure store survive total
// process loss by reusing the data plane's sealed-chunk machinery for its
// own persistence artifacts:
//
//   - Per-shard sealed WAL. Every PutBatch group-commits one WAL record
//     per touched shard before the in-enclave tables apply: the batch's
//     ops encode to a compact codec (read back through internal/codec)
//     and are sealed once, uncompressed,
//     by a deterministic AEAD under the shard's WAL key (deflate saved no
//     bytes on records this small and dominated the append). The seal's
//     AAD names the log, epoch and record index, so records cannot be
//     reordered, transplanted across shards or replayed across epochs,
//     and identical appends at one position give identical bytes. A
//     record is a u32 length prefix and the sealed ops: 32 B of overhead.
//     Torn tails are part of the contract: a final record that is cut
//     short or fails authentication reads as a clean crash point and
//     truncates; the same damage earlier in the log is a hard
//     ErrWALCorrupt. A fuzz target (FuzzDecodeWALRecord) pins that every
//     input lands in exactly torn, corrupt or valid.
//
//   - Incremental sealed snapshots. Snapshot tracks per-shard dirty
//     state: a shard untouched since its last packed snapshot publishes a
//     tiny reuse record chaining to its parent manifest instead of
//     re-packing — the delta scales with what changed, not with the
//     dataset. Dirty shards serialize their table, pack it convergently
//     and publish the blob set through internal/registry —
//     chunk-granular, content-addressed, and deduped against every image
//     layer and prior snapshot already stored. Each shard remembers its
//     last published pack (transfer.PackConvergentMemo), so a packed shard
//     deflates and seals only its changed chunks and sends the unchanged
//     ones as references the registry checks against the blobs it holds
//     (PutBlobSet re-hashes each one and refuses a missing or damaged
//     blob). Every snapshot record (packed or reuse) seals under a
//     per-shard key derived from the service key the attest.KeyBroker
//     released, with both the sequence number and the parent sequence
//     bound into the AAD: a chain cannot be spliced, re-pointed or rolled
//     back without failing authentication. The registry refuses sequence
//     rollbacks and keeps the chain's history addressable (SnapshotAt);
//     packed shards roll their WAL to a fresh epoch, reused shards keep
//     their current (empty) one. Shards are read, packed and sealed on
//     the store's shard fan-out, then stored and published in shard
//     order, so the registry sees the same calls and bytes for any worker
//     count. Publishing stops at the first failing shard; the shards
//     after it may already have been read (and charged for it), but stay
//     unpublished, their memo, dirty flag and WAL epoch untouched.
//
//   - WAL-segment GC. Rolled epochs stay as sealed segments until
//     DurableStore.GC retires the ones the newest durable snapshot has
//     made redundant — strictly below the shard's replay epoch, minus a
//     fixed retention margin of the newest sealed epoch. GC never
//     collects past the newest published snapshot: a shard that has
//     never snapshotted retires nothing, so the byte set recovery needs
//     is never narrowed.
//
//   - Recovery. RecoverDurableStore walks each shard's delta chain from
//     the latest record back to its packed ancestor — verifying every
//     link's parent binding, refusing missing links, spliced parents and
//     non-monotonic epochs — then pulls only the chunks its node cache is
//     missing via one container.Engine.PullBlobSets call for all shards
//     (the same verified pull as image boot: per-chunk digest
//     verification, tamper isolation, warm BlobCache hits) and replays
//     only the post-snapshot WAL tail inside accounting spans. A warm
//     node recovering a delta chain therefore fetches the changed chunks,
//     not the dataset. Chain walks, snapshot assembly and replay run on
//     the store's shard fan-out; chunk fetches run in shard order, and
//     the error reported is the lowest failing shard's, exactly as a
//     shard-by-shard recovery would report it.
//     Snapshot-bootstrap and log-replay sim-cycles are topology
//     (worker-invariant), so RecoveryStats is CI-gated like every other
//     simulated figure. Two fuzz targets pin the adversarial floor:
//     FuzzDecodeWALRecord (every WAL input lands torn, corrupt or valid)
//     and FuzzRecoverSnapshotChain (every chain mutation — spliced
//     parent, dropped link, bitflip, truncation, tampered chunk — either
//     recovers the exact reference state or is refused).
//
// The crash-state lab scenario drives the whole loop closed: replicas
// crash with total state loss mid-run, recover from snapshot + tail, and
// must come back bit-identical to a never-crashed twin fed the same
// request stream; delta-durability narrows the working set so most shards
// go cold, exercising reuse chains, chain-walking recovery and GC under
// the same bit-identical pin; key-revocation drives the fail-closed half,
// revoking the service mid-run so replacement replicas are denied keys
// until a reinstate lets them re-attest. cmd/bench's durability suite
// measures the delta against the full-snapshot baseline — publish chunks
// and cycles, warm-vs-cold recovery fetches, GC retirements — swept
// across worker counts, and reports a delta that fails to beat the
// baseline as a problem.
//
// # Cluster & placement
//
// internal/cluster turns the implicit single node into a simulated
// multi-node SGX cluster: N nodes, each owning its own enclave platforms,
// its own node-local container.BlobCache, and its own attested KeyBroker
// session ("cluster/node<i>"), joined to the origin registry by links
// whose chunk-transfer cost is the analytic transfer.LinkCost model
// (per-chunk latency + per-KiB cycles, summed atomically so concurrent
// fetch workers cannot reorder the totals). The orchestrator grows a
// placement axis to match: orchestrator.PlaceByLocality scores candidate
// NodeInfo snapshots by blob-cache locality (warm fraction of the service
// image's chunk set, weight 1.5) against current load (1.0 per live
// replica), with ties broken on the lowest node index — a pure function of
// the candidate set, pinned permutation-invariant by property test.
// microsvc.ClusterSet rides the replica set on top: the front-end boots on
// the gateway (node 0, warming its cache), every replica boots where
// placement says, and a boot that fails chunk
// verification isolates its node before the error propagates.
//
// Node-level faults map onto the plane's existing reactions: a node
// crash kills its replicas (the orchestrator reschedules onto surviving
// nodes — the warm-vs-cold fetch contrast is a gated metric,
// warm_lt_cold_ok); a network partition makes a node's link refuse and
// its replicas unreachable (routed requests shed deterministically with
// retry-after; served_via_unreachable is the fail-open tripwire, gated
// to zero); a byzantine registry serves one node tampered chunks (pulls
// fail closed on digest verification, the node isolates, placement
// routes around it; tampered_cached — a full cache audit — is the
// cache-poisoning tripwire, gated to zero). Three lab scenarios
// (node-crash, node-partition, byzantine-registry) drive these loops
// closed, swept across workers 1,2,4,8 with every per-node figure
// bit-identical.
//
// Node count, capacity, link cost and placer weights are topology; host
// workers remain execution-only. Components report their counters
// through one shared surface, stats.Source (flat name → float64
// snapshots, implemented by the registry, blob cache, scheduler, replica
// set and cluster), which is what folds the per-node figures into the
// gated scenario metric tables.
//
// # Data plane
//
// Image distribution — the paper's secure Docker workflow (Figure 2)
// carried by its "efficient transmission of large amounts of data"
// component (§III-B(3)) — runs on one content-addressed sealed data plane
// built from three layers:
//
//   - internal/transfer is the chunk substrate: a payload held in memory
//     is packed (PackConvergent) and streamed back out through Unpack
//     (an io.Writer fed in chunk-index order, one chunk's plaintext
//     resident at a time), each chunk compressed with pooled flate state,
//     sealed, and pinned under a Merkle root. PackConvergent seals every
//     chunk under a key derived from its own content with a deterministic
//     nonce, so identical content produces bit-identical sealed bytes;
//     the per-chunk keys ride in the manifest, which is the trusted
//     artifact anyway. Manifest validation pins the leaf count to the
//     declared geometry (the forged-count guard that codec.Reader.Count
//     gives every binary format), and a fuzz target covers manifest
//     decoding.
//
//   - internal/registry stores layers chunk-granularly: every layer is
//     encoded deterministically (image.Layer.Encode, uvarint-length-
//     prefixed in sorted path order, so each layer has exactly one
//     encoding, distinct from the digest-defining canonical form) and
//     chunked convergently, and blobs are keyed by chunk content digest.
//     Dedup keying is exactly that digest: a base layer shared by N
//     images is stored once, and Registry.Stats counts the hits. The
//     HTTP front end serves image manifests, layer chunk manifests and
//     single blobs, with digest-conditional GET (ETag/If-None-Match) on
//     the content-addressed endpoints.
//
//   - internal/container pulls: Engine.PullImage fetches the manifests,
//     computes the unique chunk set, classifies it against the node-local
//     BlobCache, fans the missing chunks out across workers
//     (sim.ParallelFor), verifies each against its digest before it may
//     enter the cache (a digest can never map to wrong bytes, so the
//     cache is unpoisonable by construction), and reassembles each layer
//     inside a per-layer verification enclave charged as transfer.Unpack
//     fetches and writes each chunk. Failed chunks fail alone; everything verified
//     stays cached, so retrying a partial pull resumes instead of
//     restarting. Engines sharing one BlobCache give the Nth replica on
//     a node a zero-fetch boot — microsvc's container-mode ReplicaSet
//     wires exactly that.
//
// Topology vs execution: the chunk set, the dedup and cache outcomes and
// the per-layer enclaves are topology — pure functions of image bytes and
// cache state. Pull worker count is execution only. Every PullStats field
// (chunks fetched, dedup hits, serial vs critical-path cycles, faults) is
// therefore bit-identical across worker counts; cmd/bench's pull suite
// sweeps workers 1,2,4,8, checks exactly that plus the zero-fetch warm
// boot, and its deterministic metrics are gated like every other
// simulated figure.
//
// # Wire front end & its load harness
//
// internal/wire puts real HTTP in front of the attested plane without
// moving any trust there: SCBR subscribe/publish/poll and ReplicaSet
// send/poll-reply endpoints carry the existing sealed envelopes verbatim
// as request and response bodies, so the front end relays bytes it cannot
// open — a compromised server degrades availability, never
// confidentiality. Confidentiality alone does not close the control
// surface, though, so the wire locks it down explicitly: an SCBR
// handshake never displaces a live session (rotating a client ID's key
// requires Rehandshake, a proof sealed under the current session key —
// without this, any network peer could re-key a victim's ID and have its
// future deliveries sealed to the attacker), SCBR polls are destructive
// drains and therefore demand a sealed single-use token with a monotonic
// anti-replay counter, wire clients can attest the broker enclave through
// nonce-bound quotes (/scbr/quote + DialSCBROpts) before handing over
// filters just like in-process scbr.Connect, and Config.AuthToken
// optionally gates the whole /scbr/* + /plane/* surface behind a bearer
// token for deployments beyond a trusted loopback. The plane gateway
// validates ingress frames structurally (microsvc.CheckFrame) and routes
// reply frames to per-tenant mailboxes by their cleartext tenant header —
// one polling client per tenant, each mailbox capped (drop-oldest, the
// mail_dropped counter) so forged tenant IDs cannot grow memory without
// bound; the frame-batch codec bounds claimed counts by the physical
// minimum before allocating (codec.Reader.Count, the forged-count guard
// again) and rejects trailing garbage (codec.Reader.Done); a plane frame's
// cleartext header (tenant, request ID, routing key, flags) is bound into
// its seal's AAD, so a host that splices headers breaks the seal; bodies
// are bounded via internal/httpx, the plumbing shared with the registry's
// front end, and client-side reads are capped symmetrically. A PlaneClient built over wire.PlaneTransport is
// byte-for-byte the in-process client — the wire tests prove the sealed
// replies identical because the bus fans the same frames to both.
//
// The repo measures each of its two currencies once. Sim-cycle figures
// are modeled costs: deterministic, bit-identical across hosts, gated by
// cmd/bench -check. Wall-clock figures measure the host and come only
// from benchmark/, which repeats and interleaves its runs. cmd/bench's
// wire suite belongs to the first kind: its closed-loop plane load (a
// fixed client population, a seeded key/tenant/payload mix,
// warmup/inject/recover phases in lockstep ticks) drives the plane
// clients and the replica set directly and produces sent/served/shed/lost
// counters and payload-size bucket counts that are pure functions of the
// seed; a reply that answers no outstanding request fails the run, so
// sent = served + shed + lost always holds. The suite runs the whole
// stack twice on fresh loopback servers and requires every counter to
// match bit-for-bit. Where the HTTP time goes per request is
// measured by benchmark/ (the wire.* per-layer metrics); wire.Config.Pprof
// mounts net/http/pprof on a server, which is how the hot-path work is found:
// profile, fold allocations out of the frame/seal paths (exact-capacity
// contiguous seal buffers, precomputed AADs, slice-based admission
// histograms), and prove the wins with go test -benchmem before/after
// while cmd/bench -check pins every sim metric unchanged.
package securecloud
