package enclave

import (
	"fmt"
	"sync"

	"securecloud/internal/cryptbox"
)

// Config describes the simulated platform.
type Config struct {
	// EPCBytes is the total processor-reserved memory (SGX v1: 128 MiB).
	EPCBytes uint64
	// EPCReservedBytes is consumed by the EPCM and SGX internal metadata
	// and unavailable to enclave pages. The paper notes the slowdown knee
	// appears before the 128 MB line for exactly this reason.
	EPCReservedBytes uint64
	// LLCBytes is the last-level cache size shared by all cores.
	LLCBytes uint64
	// LLCWays is the cache associativity.
	LLCWays int
	// LineSize is the cache line size in bytes.
	LineSize uint64
	// PageSize is the MMU page size in bytes.
	PageSize uint64
	// Cost is the per-event cycle model.
	Cost CostModel
}

// DefaultConfig returns the SGX v1 reference platform: 128 MiB EPC with
// 35 MiB reserved, 8 MiB 16-way LLC, 64 B lines, 4 KiB pages.
func DefaultConfig() Config {
	return Config{
		EPCBytes:         128 << 20,
		EPCReservedBytes: 35 << 20,
		LLCBytes:         8 << 20,
		LLCWays:          16,
		LineSize:         64,
		PageSize:         4096,
		Cost:             DefaultCostModel(),
	}
}

// Platform is one simulated SGX-capable machine: a shared EPC, a shared
// LLC, a fused device key, and the set of enclaves running on it.
// Platform methods are safe for concurrent use; the memory cost model is
// serialized internally, mirroring a single memory subsystem.
type Platform struct {
	cfg Config
	// linesPerPage is PageSize/LineSize when PageSize divides evenly (every
	// realistic geometry), letting the access walk derive page boundaries
	// by multiplication; 0 selects the general division path.
	linesPerPage uint64

	mu       sync.Mutex
	cache    *llc
	pager    *epc
	nextID   uint64
	nextBase uint64
	untrBump uint64
	enclaves map[uint64]*Enclave

	deviceKey cryptbox.Key
	reportKey cryptbox.Key
}

// enclaveRangeBase is where simulated ELRANGEs are allocated. Untrusted
// allocations live below it; the two address regions never overlap.
const enclaveRangeBase = 1 << 44

// NewPlatform builds a platform from cfg; zero fields take defaults.
func NewPlatform(cfg Config) *Platform {
	def := DefaultConfig()
	if cfg.EPCBytes == 0 {
		cfg.EPCBytes = def.EPCBytes
	}
	if cfg.EPCReservedBytes == 0 {
		cfg.EPCReservedBytes = def.EPCReservedBytes
	}
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = def.LLCBytes
	}
	if cfg.LLCWays == 0 {
		cfg.LLCWays = def.LLCWays
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = def.LineSize
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = def.PageSize
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = def.Cost
	}
	deviceKey, err := cryptbox.NewRandomKey()
	if err != nil {
		panic(fmt.Sprintf("enclave: device key: %v", err))
	}
	reportKey, err := cryptbox.DeriveKey(deviceKey, "report")
	if err != nil {
		panic(fmt.Sprintf("enclave: report key: %v", err))
	}
	var linesPerPage uint64
	if cfg.LineSize > 0 && cfg.PageSize%cfg.LineSize == 0 {
		linesPerPage = cfg.PageSize / cfg.LineSize
	}
	return &Platform{
		cfg:          cfg,
		linesPerPage: linesPerPage,
		cache:        newLLC(cfg.LLCBytes, cfg.LineSize, cfg.PageSize, cfg.LLCWays),
		pager:        newEPC(cfg.EPCBytes, cfg.EPCReservedBytes, cfg.PageSize),
		nextBase:     enclaveRangeBase,
		untrBump:     1 << 20,
		enclaves:     make(map[uint64]*Enclave),
		deviceKey:    deviceKey,
		reportKey:    reportKey,
	}
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// UsableEPCBytes returns the EPC capacity available to enclave pages.
func (p *Platform) UsableEPCBytes() uint64 {
	return uint64(p.pager.capacity) * p.cfg.PageSize
}

// EPCResidentPages returns the number of currently resident EPC pages
// across all enclaves.
func (p *Platform) EPCResidentPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pager.residentPages()
}

// UntrustedMemory returns a fresh accounting view of normal (unprotected)
// memory on this platform.
func (p *Platform) UntrustedMemory() *Memory {
	return &Memory{p: p, touched: make(map[uint64]struct{})}
}

// AllocUntrusted reserves size bytes of untrusted address space and returns
// its base address. The allocation itself is free; costs accrue on access.
func (p *Platform) AllocUntrusted(size uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := p.untrBump
	p.untrBump += align(size, 8)
	if p.untrBump >= enclaveRangeBase {
		panic("enclave: untrusted address space exhausted")
	}
	return base
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
