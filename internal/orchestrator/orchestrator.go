// Package orchestrator implements the fine-granular, highly responsive
// orchestration system of paper §VI (use case 2): monitoring services
// watch the micro-services of an application, detect anomalies within
// (simulated) milliseconds, and react by adapting the virtual
// infrastructure — scaling replicas out and in and re-dispatching load —
// while enforcing quality-of-service targets without touching the
// applications' security properties (the orchestrator only ever sees
// resource metrics and queue depths, never plaintext data).
package orchestrator

import (
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/sim"
)

// Metrics is one monitoring sample of one replica.
type Metrics struct {
	// QueueDepth is the replica's pending-request backlog.
	QueueDepth int
	// ServiceCycles is the simulated cost of one request at this replica.
	ServiceCycles sim.Cycles
	// Healthy is false when the replica stopped responding.
	Healthy bool
	// Shed counts requests the service's admission front end rejected in
	// the last serve tick. It is a set-level figure reported identically by
	// every replica of a set: shedding happens before routing, so it cannot
	// be attributed to one replica — but it is the overload signal the
	// control loop needs when admission keeps per-replica queues bounded
	// (deep queues never form, so MaxQueueDepth alone would miss the
	// overload entirely).
	Shed int
}

// Replica is the orchestrator's handle on one running micro-service
// instance. Implementations wrap a container.Container or a microsvc
// worker; tests use fakes.
type Replica interface {
	// ID identifies the replica.
	ID() string
	// Sample returns current metrics.
	Sample() Metrics
}

// Target is the QoS goal for one service.
type Target struct {
	// MaxQueueDepth per replica before scale-out.
	MaxQueueDepth int
	// MinReplicas / MaxReplicas bound the adaptation.
	MinReplicas int
	MaxReplicas int
	// ScaleInBelow is the per-replica queue depth under which the
	// orchestrator retires replicas.
	ScaleInBelow int
	// MaxServiceCycles restarts a replica whose per-request service cost
	// exceeds it — the straggler rule: a replica that turned slow (degraded
	// node, interference) is replaced with a fresh one rather than left to
	// drag the service's tail latency. Zero disables the rule.
	MaxServiceCycles sim.Cycles
	// MaxShedPerTick scales out when the service's admission front end shed
	// more than this many requests in the last tick — the overload signal
	// for admission-controlled services, whose bounded per-replica queues
	// never trip MaxQueueDepth. Zero disables the rule.
	MaxShedPerTick int
}

// Action is one adaptation decision.
type Action struct {
	Kind string // "scale-out" | "scale-in" | "restart"
	// ReplicaID is set for scale-in/restart.
	ReplicaID string
	// Tick is the monitoring tick that triggered the decision.
	Tick int64
	// Reason is a human-readable trigger description.
	Reason string
}

// Launcher creates and retires replicas; the engine side implements it.
type Launcher interface {
	// Launch starts a new replica and returns it.
	Launch() (Replica, error)
	// Retire stops a replica.
	Retire(id string) error
}

// Errors.
var (
	ErrNoReplicas = errors.New("orchestrator: service has no replicas")
)

// Orchestrator supervises one service.
type Orchestrator struct {
	target   Target
	launcher Launcher

	mu       sync.Mutex
	replicas []Replica
	log      []Action
	tick     int64
	// reactions counts adaptations; detection-to-reaction latency is zero
	// ticks in this synchronous design, the simulated counterpart of the
	// paper's millisecond-scale requirement.
	reactions int
}

// New builds an orchestrator over an initial replica set.
func New(target Target, launcher Launcher, initial ...Replica) (*Orchestrator, error) {
	if target.MinReplicas <= 0 {
		target.MinReplicas = 1
	}
	if target.MaxReplicas < target.MinReplicas {
		target.MaxReplicas = target.MinReplicas
	}
	if len(initial) == 0 {
		return nil, ErrNoReplicas
	}
	return &Orchestrator{target: target, launcher: launcher, replicas: initial}, nil
}

// Replicas returns the current replica count.
func (o *Orchestrator) Replicas() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.replicas)
}

// Log returns the adaptation history.
func (o *Orchestrator) Log() []Action {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Action(nil), o.log...)
}

// Observe runs one monitoring tick: sample every replica, detect
// anomalies, react immediately (same tick — the simulated counterpart of
// the paper's millisecond reactions). It returns the actions taken.
//
// Replacement is fail-closed: a launch that the launcher refuses (for
// example the KeyBroker denying key release to a revoked service) aborts
// the tick with the error before the unhealthy replica is retired, so the
// fleet never trades an unhealthy replica for nothing. The dead replica
// stays in the set and the orchestrator retries the replacement on every
// subsequent tick until the launch succeeds — e.g. after the service is
// reinstated and replacements can re-attest.
func (o *Orchestrator) Observe() ([]Action, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tick++
	var actions []Action

	// 1. Health: restart dead and straggling replicas. A replica whose
	// per-request service cost exceeds the target's MaxServiceCycles is
	// treated like a failure — replaced the same tick it is detected.
	for i, r := range o.replicas {
		m := r.Sample()
		reason := ""
		switch {
		case !m.Healthy:
			reason = "replica unhealthy"
		case o.target.MaxServiceCycles > 0 && m.ServiceCycles > o.target.MaxServiceCycles:
			reason = fmt.Sprintf("service cycles %d > %d", m.ServiceCycles, o.target.MaxServiceCycles)
		default:
			continue
		}
		if o.launcher == nil {
			continue
		}
		fresh, err := o.launcher.Launch()
		if err != nil {
			return actions, fmt.Errorf("orchestrator: replacing %s: %w", r.ID(), err)
		}
		_ = o.launcher.Retire(r.ID())
		o.replicas[i] = fresh
		actions = append(actions, o.record(Action{
			Kind: "restart", ReplicaID: r.ID(), Tick: o.tick,
			Reason: reason,
		}))
	}

	// 2. Load: scale out when any replica exceeds the queue target, or —
	// for admission-controlled services — when the front end sheds beyond
	// the tolerated rate (bounded queues hide overload from the depth rule;
	// the shed rate is where it reappears).
	worst, total, shed := 0, 0, 0
	for _, r := range o.replicas {
		m := r.Sample()
		total += m.QueueDepth
		if m.QueueDepth > worst {
			worst = m.QueueDepth
		}
		if m.Shed > shed {
			shed = m.Shed
		}
	}
	overloaded, reason := false, ""
	switch {
	case worst > o.target.MaxQueueDepth:
		overloaded = true
		reason = fmt.Sprintf("queue depth %d > %d", worst, o.target.MaxQueueDepth)
	case o.target.MaxShedPerTick > 0 && shed > o.target.MaxShedPerTick:
		overloaded = true
		reason = fmt.Sprintf("shed %d > %d per tick", shed, o.target.MaxShedPerTick)
	}
	if overloaded && len(o.replicas) < o.target.MaxReplicas && o.launcher != nil {
		fresh, err := o.launcher.Launch()
		if err != nil {
			return actions, fmt.Errorf("orchestrator: scale-out: %w", err)
		}
		o.replicas = append(o.replicas, fresh)
		actions = append(actions, o.record(Action{
			Kind: "scale-out", Tick: o.tick,
			Reason: reason,
		}))
	}

	// 3. Efficiency: scale in when the whole fleet is idle enough that
	// one fewer replica still meets the target. A service that is actively
	// shedding is never idle, however shallow its (bounded) queues look.
	if len(o.replicas) > o.target.MinReplicas && o.launcher != nil && shed == 0 {
		perReplica := total / len(o.replicas)
		if perReplica < o.target.ScaleInBelow && worst < o.target.ScaleInBelow {
			victim := o.replicas[len(o.replicas)-1]
			if err := o.launcher.Retire(victim.ID()); err != nil {
				return actions, fmt.Errorf("orchestrator: scale-in: %w", err)
			}
			o.replicas = o.replicas[:len(o.replicas)-1]
			actions = append(actions, o.record(Action{
				Kind: "scale-in", ReplicaID: victim.ID(), Tick: o.tick,
				Reason: fmt.Sprintf("mean queue depth %d < %d", perReplica, o.target.ScaleInBelow),
			}))
		}
	}
	return actions, nil
}

func (o *Orchestrator) record(a Action) Action {
	o.log = append(o.log, a)
	o.reactions++
	return a
}

// String renders one action deterministically: every field it prints is a
// pure function of the monitoring inputs, so adaptation traces built from
// it are comparable bit-for-bit across runs and worker counts.
func (a Action) String() string {
	if a.ReplicaID == "" {
		return fmt.Sprintf("t%04d %s (%s)", a.Tick, a.Kind, a.Reason)
	}
	return fmt.Sprintf("t%04d %s %s (%s)", a.Tick, a.Kind, a.ReplicaID, a.Reason)
}

// Trace renders the adaptation log as deterministic strings — the
// artifact the benchmark harness hashes and gates: two runs of the same
// scenario must produce byte-identical traces regardless of execution
// parallelism.
func (o *Orchestrator) Trace() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, len(o.log))
	for i, a := range o.log {
		out[i] = a.String()
	}
	return out
}
