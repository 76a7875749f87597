// Package genpack implements GenPack (paper §IV, §VI; Havet et al.,
// IC2E '17): a scheduling and monitoring framework for container-based
// data centres that borrows the generational hypothesis from garbage
// collection. Servers are partitioned into generations — a nursery where
// new containers are profiled, a young generation for transient jobs, and
// an old generation where long-running services are packed tightly — so
// that whole servers drain and power off instead of idling at low
// utilisation. The paper claims up to 23% energy savings for typical
// data-centre workloads; the simulation in this package reproduces that
// experiment against spread and first-fit baselines.
package genpack

import (
	"fmt"
	"sort"
)

// Resources is a (CPU cores, memory MB) demand or capacity vector.
type Resources struct {
	CPU   float64
	MemMB float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, MemMB: r.MemMB + o.MemMB}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, MemMB: r.MemMB - o.MemMB}
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU+1e-9 && r.MemMB <= c.MemMB+1e-9
}

// Generation labels a server group, in GC terminology.
type Generation int

// Server generations. Containers are born into the nursery, promoted to
// young once profiled, and to old once their longevity is established.
const (
	Nursery Generation = iota
	Young
	Old
)

func (g Generation) String() string {
	switch g {
	case Nursery:
		return "nursery"
	case Young:
		return "young"
	case Old:
		return "old"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// Container is one scheduled workload unit.
type Container struct {
	ID int
	// Demand is the *declared* (provisioned) resource request — what the
	// user asked for, typically conservative.
	Demand  Resources
	Arrival int64 // tick of arrival
	// Lifetime is the remaining duration in ticks (decremented by the
	// simulator; the scheduler cannot see it — it must infer longevity
	// from age, as GenPack's monitor does).
	Lifetime int64

	// UtilFactor is the fraction of the declared demand the container
	// actually uses (hidden from the scheduler; 0 means 1.0). GenPack's
	// monitoring exists to discover it.
	UtilFactor float64
	// Reserved is the scheduler's reservation for placement; zero means
	// "reserve the full declared demand". GenPack's monitor tightens it
	// after profiling.
	Reserved Resources

	// Age is ticks since arrival (maintained by the simulator; visible to
	// the scheduler — this is what runtime monitoring provides).
	Age int64

	server *Server
}

// Usage returns the container's actual resource consumption.
func (c *Container) Usage() Resources {
	f := c.UtilFactor
	if f == 0 {
		f = 1
	}
	return Resources{CPU: c.Demand.CPU * f, MemMB: c.Demand.MemMB * f}
}

// reservation returns what placement must account for.
func (c *Container) reservation() Resources {
	if c.Reserved == (Resources{}) {
		return c.Demand
	}
	return c.Reserved
}

// Server is one physical machine.
type Server struct {
	ID       int
	Capacity Resources
	Gen      Generation
	// Pidle and Pmax parameterise the linear power model; SPECpower-like
	// defaults are set by NewCluster.
	Pidle, Pmax float64

	on         bool
	used       Resources // reserved (placement view)
	trueUsed   Resources // actual usage (power view)
	containers map[int]placement
}

// placement pins the amounts booked at placement time, so removal releases
// exactly what was reserved even if the container's reservation was
// re-estimated meanwhile.
type placement struct {
	c        *Container
	reserved Resources
	usage    Resources
}

// On reports whether the server is powered.
func (s *Server) On() bool { return s.on }

// Used returns the currently reserved resources (the placement view).
func (s *Server) Used() Resources { return s.used }

// Utilization returns actual CPU utilisation in [0,1] (the power-relevant
// axis): servers burn power for work done, not for reservations.
func (s *Server) Utilization() float64 {
	if s.Capacity.CPU == 0 {
		return 0
	}
	u := s.trueUsed.CPU / s.Capacity.CPU
	if u > 1 {
		u = 1
	}
	return u
}

// Overcommitted reports whether actual usage exceeds capacity — the QoS
// violation an over-aggressive monitor-driven reservation can cause.
func (s *Server) Overcommitted() bool {
	return !s.trueUsed.Fits(s.Capacity)
}

// Power returns the instantaneous draw in watts: the linear idle+dynamic
// model standard in data-centre energy studies. A powered-off server draws
// nothing.
func (s *Server) Power() float64 {
	if !s.on {
		return 0
	}
	return s.Pidle + (s.Pmax-s.Pidle)*s.Utilization()
}

// place assigns c to the server, reserving its reservation. It reports
// false when the reservation does not fit.
func (s *Server) place(c *Container) bool {
	res := c.reservation()
	if !s.used.Add(res).Fits(s.Capacity) {
		return false
	}
	if s.containers == nil {
		s.containers = make(map[int]placement)
	}
	use := c.Usage()
	s.containers[c.ID] = placement{c: c, reserved: res, usage: use}
	s.used = s.used.Add(res)
	s.trueUsed = s.trueUsed.Add(use)
	s.on = true
	c.server = s
	return true
}

// remove detaches c from the server, releasing exactly what was booked.
func (s *Server) remove(c *Container) {
	pl, ok := s.containers[c.ID]
	if !ok {
		return
	}
	delete(s.containers, c.ID)
	s.used = s.used.Sub(pl.reserved)
	s.trueUsed = s.trueUsed.Sub(pl.usage)
	c.server = nil
}

// Count returns the number of resident containers.
func (s *Server) Count() int { return len(s.containers) }

// Cluster is the set of servers under one scheduler.
type Cluster struct {
	Servers []*Server
}

// ClusterConfig sizes a homogeneous cluster.
type ClusterConfig struct {
	Servers  int
	Capacity Resources
	// Pidle/Pmax per server; zero takes the defaults (100 W / 200 W,
	// typical dual-socket SPECpower numbers of the paper's era).
	Pidle, Pmax float64
}

// The fractions of a cluster's servers assigned to the nursery and young
// generations; the rest is old.
const (
	nurseryShare = 0.10
	youngShare   = 0.30
)

// NewCluster builds a cluster with servers partitioned into generations.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Servers <= 0 {
		cfg.Servers = 100
	}
	if cfg.Capacity == (Resources{}) {
		cfg.Capacity = Resources{CPU: 16, MemMB: 64 << 10}
	}
	if cfg.Pidle == 0 {
		cfg.Pidle = 100
	}
	if cfg.Pmax == 0 {
		cfg.Pmax = 200
	}
	c := &Cluster{}
	nNursery := int(float64(cfg.Servers) * nurseryShare)
	nYoung := int(float64(cfg.Servers) * youngShare)
	if nNursery < 1 {
		nNursery = 1
	}
	if nYoung < 1 {
		nYoung = 1
	}
	for i := 0; i < cfg.Servers; i++ {
		gen := Old
		switch {
		case i < nNursery:
			gen = Nursery
		case i < nNursery+nYoung:
			gen = Young
		}
		c.Servers = append(c.Servers, &Server{
			ID: i, Capacity: cfg.Capacity, Gen: gen,
			Pidle: cfg.Pidle, Pmax: cfg.Pmax,
		})
	}
	return c
}

// Generation returns the servers of one generation.
func (c *Cluster) Generation(g Generation) []*Server {
	var out []*Server
	for _, s := range c.Servers {
		if s.Gen == g {
			out = append(out, s)
		}
	}
	return out
}

// PowerDraw returns the cluster's instantaneous draw in watts.
func (c *Cluster) PowerDraw() float64 {
	var w float64
	for _, s := range c.Servers {
		w += s.Power()
	}
	return w
}

// PoweredOn returns the number of powered servers.
func (c *Cluster) PoweredOn() int {
	n := 0
	for _, s := range c.Servers {
		if s.on {
			n++
		}
	}
	return n
}

// sweepIdle powers down servers with no containers.
func (c *Cluster) sweepIdle() {
	for _, s := range c.Servers {
		if s.on && len(s.containers) == 0 {
			s.on = false
		}
	}
}

// byUsedDescending orders servers by CPU in use, fullest first — the
// packing order that drains the emptiest servers.
func byUsedDescending(servers []*Server) []*Server {
	out := append([]*Server(nil), servers...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].used.CPU != out[j].used.CPU {
			return out[i].used.CPU > out[j].used.CPU
		}
		return out[i].ID < out[j].ID
	})
	return out
}
