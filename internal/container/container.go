// Package container implements secure containers (paper §IV, §V-A): the
// container engine that runs micro-service images inside SGX enclaves, the
// SCONE client that wraps the engine for building and spawning secure
// containers, and the resource monitoring the paper's secure-container
// layer requires for accounting and billing.
//
// From the engine's perspective a secure container is indistinguishable
// from a regular one: the engine pulls the image, loads the entrypoint into
// an enclave and starts it. All secrets flow through the attested CAS
// channel; the engine never sees them.
package container

import (
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/sconert"
	"securecloud/internal/shield"
	"securecloud/internal/sim"
)

// EntrypointPath is the image path of the micro-service's protected
// executable (statically linked against the SCONE library, per the paper).
const EntrypointPath = "/bin/app"

// DefaultEnclaveSize is used when the image does not request one.
const DefaultEnclaveSize = 64 << 20

// State tracks a container through its lifecycle.
type State int

// Container lifecycle states.
const (
	StateRunning State = iota
	StateStopped
)

func (s State) String() string {
	if s == StateRunning {
		return "running"
	}
	return "stopped"
}

// Errors returned by the engine.
var (
	ErrNoEntrypoint = errors.New("container: image has no entrypoint executable")
)

// Container is one running secure container.
type Container struct {
	ID      string
	Ref     string
	Runtime *sconert.Runtime

	mu    sync.Mutex
	state State
}

// State returns the lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Stop tears the container down and releases its EPC pages.
func (c *Container) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateStopped {
		return
	}
	c.state = StateStopped
	c.Runtime.Enclave().Destroy()
}

// Usage is the resource accounting record the secure-container layer
// exposes for billing (paper §III-B(1): "monitor hardware usage ... allow
// for accounting and billing").
type Usage struct {
	CPUCycles   sim.Cycles
	MemoryBytes uint64
	PageFaults  uint64
	Syscalls    uint64
	AEX         uint64
}

// Usage returns the container's current resource consumption.
func (c *Container) Usage() Usage {
	enc := c.Runtime.Enclave()
	return Usage{
		CPUCycles:   enc.Memory().Cycles(),
		MemoryBytes: enc.Size(),
		PageFaults:  enc.Memory().Faults(),
		Syscalls:    c.Runtime.Shield().Calls(),
		AEX:         enc.AEXCount(),
	}
}

// Engine is a node's container engine: one platform, one host OS, a pull
// source and the node's quoting enclave.
type Engine struct {
	Platform *enclave.Platform
	Host     *shield.Host
	// Registry is the chunk-granular pull source: the in-process registry
	// or its HTTP client.
	Registry PullSource
	Quoter   *attest.Quoter
	Mode     shield.CallMode
	// Cache is the node-local blob cache shared by the engines on one
	// node; nil pulls through a pull-private cache.
	Cache *BlobCache
	// PullWorkers bounds the pull fan-out (execution only; 0 = GOMAXPROCS).
	PullWorkers int

	mu       sync.Mutex
	nextID   int
	run      map[string]*Container
	lastPull PullStats
}

// NewEngine assembles an engine.
func NewEngine(p *enclave.Platform, host *shield.Host, reg PullSource, q *attest.Quoter) *Engine {
	return &Engine{
		Platform: p, Host: host, Registry: reg, Quoter: q,
		Mode: shield.ModeAsync,
		run:  make(map[string]*Container),
	}
}

// LaunchNode provisions a fresh SGX node for the application plane: a
// simulated platform built from cfg (zero Config = platform defaults),
// its quoting enclave registered with svc under platformID, a shielded
// host, and a container engine pulling from reg. It is the node-allocation
// step of the paper's replica boot sequence; Engine.Run then performs
// pull → verify → build enclave → attest → SCF release. Giving every
// replica its own node keeps the simulated platforms disjoint, which is
// what makes per-replica cycle totals independent of how replicas are
// interleaved at execution time.
func LaunchNode(svc *attest.Service, platformID string, reg PullSource, cfg enclave.Config) (*Engine, error) {
	p := enclave.NewPlatform(cfg)
	q, err := svc.Provision(p, platformID)
	if err != nil {
		return nil, err
	}
	return NewEngine(p, shield.NewHost(), reg, q), nil
}

// Run pulls name:tag chunk-granularly through the node cache (PullImage:
// parallel fetch, per-chunk verification, per-layer verification
// enclaves), loads its entrypoint into a fresh enclave, boots the SCONE
// runtime against cas and returns the running container. The signer digest
// for MRSIGNER is derived from the manifest's signing key.
func (e *Engine) Run(name, tag string, cas *sconert.CAS) (*Container, error) {
	img, _, err := e.PullImage(name, tag)
	if err != nil {
		return nil, err
	}
	enc, err := BuildEnclave(e.Platform, img)
	if err != nil {
		return nil, err
	}
	cfg := sconert.BootConfig{
		Enclave: enc,
		Quoter:  e.Quoter,
		CAS:     cas,
		Host:    e.Host,
		Mode:    e.Mode,
	}
	if img.Manifest.Secure {
		sealedPF, err := img.SealedProtectionFile()
		if err != nil {
			enc.Destroy()
			return nil, err
		}
		blobs, err := img.ProtectedBlobs()
		if err != nil {
			enc.Destroy()
			return nil, err
		}
		cfg.SealedProtectionFile = sealedPF
		cfg.Blobs = blobs
	}
	rt, err := sconert.Boot(cfg)
	if err != nil {
		enc.Destroy()
		return nil, err
	}

	e.mu.Lock()
	e.nextID++
	id := fmt.Sprintf("sc-%06d", e.nextID)
	c := &Container{ID: id, Ref: img.Ref(), Runtime: rt, state: StateRunning}
	e.run[id] = c
	e.mu.Unlock()
	return c, nil
}

// Containers lists the engine's containers.
func (e *Engine) Containers() []*Container {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Container, 0, len(e.run))
	for _, c := range e.run {
		out = append(out, c)
	}
	return out
}

// BuildEnclave loads an image's entrypoint into a fresh enclave on p,
// following the deterministic build sequence that makes MRENCLAVE
// reproducible: ECREATE(size) + EADD(entrypoint bytes) + EINIT.
func BuildEnclave(p *enclave.Platform, img *image.Image) (*enclave.Enclave, error) {
	code, err := img.File(EntrypointPath)
	if err != nil {
		return nil, ErrNoEntrypoint
	}
	size := img.Manifest.Config.EnclaveSize
	if size == 0 {
		size = DefaultEnclaveSize
	}
	signer := cryptbox.Sum(img.Manifest.SignerPublicKey)
	enc, err := p.ECreate(size, signer)
	if err != nil {
		return nil, err
	}
	if _, err := enc.EAdd(code); err != nil {
		enc.Destroy()
		return nil, err
	}
	if err := enc.EInit(); err != nil {
		enc.Destroy()
		return nil, err
	}
	return enc, nil
}

// ExpectedMeasurement predicts the MRENCLAVE an engine will produce for an
// image, by replaying the build sequence on a scratch platform.
// Measurements are platform-independent, so the image owner can compute
// this in their trusted environment and register the CAS policy before the
// image ever runs in the cloud.
func ExpectedMeasurement(img *image.Image) (cryptbox.Digest, error) {
	scratch := enclave.NewPlatform(enclave.Config{})
	enc, err := BuildEnclave(scratch, img)
	if err != nil {
		return cryptbox.Digest{}, err
	}
	defer enc.Destroy()
	return enc.Measurement()
}
