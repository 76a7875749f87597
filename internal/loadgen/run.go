package loadgen

import (
	"fmt"
	"math/rand"
)

// Request is one generated plane request.
type Request struct {
	Key  string
	Body []byte
}

// Reply is one observed plane reply.
type Reply struct {
	ID   uint64
	Shed bool
}

// Driver is the closed-loop system under test. Run calls Send for each
// client in client order within a tick, then Step to advance the serving
// plane, then Poll for each client — so a Driver backed by the simulated
// plane sees exactly one deterministic arrival order per tick.
type Driver interface {
	// Send submits reqs on behalf of client and returns the assigned
	// request IDs in submission order.
	Send(client int, tenant string, reqs []Request) ([]uint64, error)
	// Poll drains the replies currently available to client.
	Poll(client int) ([]Reply, error)
	// Step advances the serving plane by one tick.
	Step() error
}

// Phase is one stretch of the workload with a fixed per-client rate.
type Phase struct {
	Name      string
	Ticks     int
	PerClient int // requests per client per tick
}

// Spec pins the workload. Every field feeds the seeded generators, so two
// runs of the same spec against deterministic drivers produce identical
// request streams — byte for byte.
type Spec struct {
	Clients    int
	Seed       int64
	Keys       int      // distinct routing keys, k0000..k{Keys-1}
	Tenants    []string // client i sends as Tenants[i%len(Tenants)]; empty = untenanted
	PayloadMin int
	PayloadMax int
	Phases     []Phase
	DrainTicks int // post-phase ticks with no sends, to let replies drain
}

// Result aggregates one run; every field is deterministic under a fixed
// spec and a deterministic driver. Sent == Served + Shed + Lost.
type Result struct {
	Sent      uint64
	Served    uint64
	Shed      uint64
	Lost      uint64 // sent but never answered within the run
	BytesSent uint64
	PhaseSent map[string]uint64
	Sizes     *Histogram // payload bytes
}

// Run drives the spec against d in lockstep ticks and aggregates the
// outcome. Sends within a tick are sequential in client order; each reply
// must answer an outstanding request of the polling client, matched by
// request ID — a reply for an ID never sent, or already answered, fails
// the run, so a duplicating driver cannot inflate Served.
func Run(spec Spec, d Driver) (*Result, error) {
	if spec.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: spec needs at least one client")
	}
	if spec.Keys <= 0 {
		return nil, fmt.Errorf("loadgen: spec needs at least one key")
	}
	if spec.PayloadMin <= 0 || spec.PayloadMax < spec.PayloadMin {
		return nil, fmt.Errorf("loadgen: bad payload range [%d,%d]", spec.PayloadMin, spec.PayloadMax)
	}
	rngs := make([]*rand.Rand, spec.Clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(spec.Seed + int64(i)*7919))
	}
	tenantOf := func(client int) string {
		if len(spec.Tenants) == 0 {
			return ""
		}
		return spec.Tenants[client%len(spec.Tenants)]
	}

	res := &Result{
		PhaseSent: make(map[string]uint64),
		Sizes:     NewHistogram(SizeBounds()),
	}
	// Request IDs are per-driver-client counters, so outstanding requests
	// are keyed by (client, id) — IDs from different clients may collide.
	type pendingKey struct {
		client int
		id     uint64
	}
	outstanding := make(map[pendingKey]struct{})

	poll := func(client int) error {
		replies, err := d.Poll(client)
		if err != nil {
			return fmt.Errorf("loadgen: poll client %d: %w", client, err)
		}
		for _, rep := range replies {
			k := pendingKey{client: client, id: rep.ID}
			if _, ok := outstanding[k]; !ok {
				return fmt.Errorf("loadgen: client %d got a reply for request %d, which is not outstanding", client, rep.ID)
			}
			delete(outstanding, k)
			if rep.Shed {
				res.Shed++
			} else {
				res.Served++
			}
		}
		return nil
	}

	for _, ph := range spec.Phases {
		for tick := 0; tick < ph.Ticks; tick++ {
			for client := 0; client < spec.Clients; client++ {
				if ph.PerClient == 0 {
					continue
				}
				rng := rngs[client]
				reqs := make([]Request, ph.PerClient)
				for i := range reqs {
					size := spec.PayloadMin + rng.Intn(spec.PayloadMax-spec.PayloadMin+1)
					body := make([]byte, size)
					for j := range body {
						body[j] = byte(rng.Intn(256))
					}
					reqs[i] = Request{Key: fmt.Sprintf("k%04d", rng.Intn(spec.Keys)), Body: body}
					res.Sizes.Observe(int64(size))
					res.BytesSent += uint64(size)
				}
				ids, err := d.Send(client, tenantOf(client), reqs)
				if err != nil {
					return nil, fmt.Errorf("loadgen: send client %d: %w", client, err)
				}
				if len(ids) != len(reqs) {
					return nil, fmt.Errorf("loadgen: client %d sent %d requests, got %d ids", client, len(reqs), len(ids))
				}
				for _, id := range ids {
					k := pendingKey{client: client, id: id}
					if _, ok := outstanding[k]; ok {
						return nil, fmt.Errorf("loadgen: client %d was assigned request %d twice", client, id)
					}
					outstanding[k] = struct{}{}
				}
				res.Sent += uint64(len(reqs))
				res.PhaseSent[ph.Name] += uint64(len(reqs))
			}
			if err := d.Step(); err != nil {
				return nil, fmt.Errorf("loadgen: step: %w", err)
			}
			for client := 0; client < spec.Clients; client++ {
				if err := poll(client); err != nil {
					return nil, err
				}
			}
		}
	}
	for tick := 0; tick < spec.DrainTicks; tick++ {
		if err := d.Step(); err != nil {
			return nil, fmt.Errorf("loadgen: drain step: %w", err)
		}
		for client := 0; client < spec.Clients; client++ {
			if err := poll(client); err != nil {
				return nil, err
			}
		}
	}

	res.Lost = uint64(len(outstanding))
	return res, nil
}
