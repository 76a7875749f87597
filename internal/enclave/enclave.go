package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"securecloud/internal/cryptbox"
)

// State tracks the enclave lifecycle.
type State int

// Enclave lifecycle states.
const (
	StateCreated State = iota // after ECREATE, pages may be added
	StateInitialized
	StateDestroyed
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateInitialized:
		return "initialized"
	case StateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Lifecycle errors.
var (
	ErrNotInitialized = errors.New("enclave: not initialized")
	ErrInitialized    = errors.New("enclave: already initialized")
	ErrDestroyed      = errors.New("enclave: destroyed")
	ErrNotEntered     = errors.New("enclave: EEXIT without matching EENTER")
	ErrRangeFull      = errors.New("enclave: ELRANGE exhausted")
)

// Enclave is one simulated SGX enclave on a Platform.
type Enclave struct {
	p      *Platform
	id     uint64
	base   uint64
	size   uint64
	signer cryptbox.Digest
	svn    uint16

	state     State
	measuring hash.Hash
	mrenclave cryptbox.Digest

	mem      *Memory
	addNext  uint64 // next EADD offset
	heapNext uint64 // bump pointer for Alloc after EINIT

	depth int    // EENTER nesting depth
	aex   uint64 // asynchronous exits (interrupts + EPC faults)
}

// ECreate allocates a new enclave of the given virtual size (rounded up to
// a whole number of pages) signed by signer (MRSIGNER). This mirrors the
// SGX ECREATE instruction: it fixes the ELRANGE and starts the MRENCLAVE
// measurement.
func (p *Platform) ECreate(size uint64, signer cryptbox.Digest) (*Enclave, error) {
	if size == 0 {
		return nil, errors.New("enclave: ECREATE with zero size")
	}
	size = align(size, p.cfg.PageSize)

	p.mu.Lock()
	id := p.nextID
	p.nextID++
	base := p.nextBase
	p.nextBase += size + p.cfg.PageSize // guard page between ranges
	p.mu.Unlock()

	e := &Enclave{
		p:         p,
		id:        id,
		base:      base,
		size:      size,
		signer:    signer,
		state:     StateCreated,
		measuring: sha256.New(),
	}
	e.mem = &Memory{p: p, enc: e}
	e.extend("ECREATE", binaryU64(size))

	p.mu.Lock()
	p.enclaves[id] = e
	p.mu.Unlock()
	return e, nil
}

// Platform returns the platform hosting this enclave.
func (e *Enclave) Platform() *Platform { return e.p }

// Base returns the start of the enclave's simulated ELRANGE.
func (e *Enclave) Base() uint64 { return e.base }

// Size returns the ELRANGE size in bytes.
func (e *Enclave) Size() uint64 { return e.size }

// State returns the lifecycle state.
func (e *Enclave) State() State { return e.state }

// SetSVN sets the enclave's security version number (ISVSVN in the SGX
// SIGSTRUCT): the author bumps it when shipping a security fix, so relying
// parties can refuse older, vulnerable builds (TCB recovery). It must be
// set before EInit.
func (e *Enclave) SetSVN(svn uint16) error {
	if e.state != StateCreated {
		return ErrInitialized
	}
	e.svn = svn
	return nil
}

// SVN returns the enclave's security version number.
func (e *Enclave) SVN() uint16 { return e.svn }

// Memory returns the enclave's accounting view of protected memory.
func (e *Enclave) Memory() *Memory { return e.mem }

// EAdd copies data into the enclave at the next free offset before
// initialization, extending the measurement over both the page metadata and
// contents (EADD + EEXTEND). It returns the simulated address of the data.
func (e *Enclave) EAdd(data []byte) (uint64, error) {
	switch e.state {
	case StateInitialized:
		return 0, ErrInitialized
	case StateDestroyed:
		return 0, ErrDestroyed
	}
	n := align(uint64(len(data)), e.p.cfg.PageSize)
	if n == 0 {
		n = e.p.cfg.PageSize
	}
	if e.addNext+n > e.size {
		return 0, fmt.Errorf("%w: need %d bytes, %d free", ErrRangeFull, n, e.size-e.addNext)
	}
	addr := e.base + e.addNext
	e.extend("EADD", binaryU64(e.addNext))
	e.extend("EEXTEND", data)
	e.addNext += n
	e.heapNext = e.addNext
	// Copying the pages into the EPC touches them.
	e.mem.AccessRange(addr, len(data), true)
	return addr, nil
}

// EInit finalizes the measurement and makes the enclave executable. After
// EInit no further pages can be added (SGX v1 semantics — no EDMM).
func (e *Enclave) EInit() error {
	switch e.state {
	case StateInitialized:
		return ErrInitialized
	case StateDestroyed:
		return ErrDestroyed
	}
	copy(e.mrenclave[:], e.measuring.Sum(nil))
	e.measuring = nil
	e.state = StateInitialized
	// SGX v1 has no dynamic memory management: every page of the ELRANGE
	// was EADDed at build time, which loads it into the EPC. Model that
	// by touching all pages through the pager (no cost: build time). For
	// enclaves larger than the EPC, only the most recently loaded pages
	// remain resident — exactly the hardware behaviour.
	e.p.mu.Lock()
	for addr := e.base; addr < e.base+e.size; addr += e.p.cfg.PageSize {
		e.p.pager.touch(addr)
	}
	e.p.mu.Unlock()
	return nil
}

// Measurement returns MRENCLAVE. It is only defined once initialized.
func (e *Enclave) Measurement() (cryptbox.Digest, error) {
	if e.state != StateInitialized {
		return cryptbox.Digest{}, ErrNotInitialized
	}
	return e.mrenclave, nil
}

// EEnter performs a synchronous entry into the enclave, charging the
// transition cost for the EENTER/EEXIT pair. Entries may nest (one per
// logical thread / TCS).
func (e *Enclave) EEnter() error {
	if e.state != StateInitialized {
		return ErrNotInitialized
	}
	e.p.mu.Lock()
	e.depth++
	e.p.mu.Unlock()
	e.mem.charge(causeTransition, e.p.cfg.Cost.Transition)
	return nil
}

// EExit leaves the enclave.
func (e *Enclave) EExit() error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	if e.depth == 0 {
		return ErrNotEntered
	}
	e.depth--
	return nil
}

// Entered reports whether any logical thread is currently inside.
func (e *Enclave) Entered() bool {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return e.depth > 0
}

// OCall charges the cost of one synchronous world switch (EEXIT to execute
// a system call outside, then EENTER back), as incurred by a conventional
// syscall from enclave code. SCONE's asynchronous syscall interface exists
// precisely to avoid this cost.
func (e *Enclave) OCall() {
	e.mem.charge(causeTransition, e.p.cfg.Cost.Transition)
}

// Interrupt simulates an asynchronous enclave exit (AEX) plus ERESUME, as
// caused by interrupts and exceptions while executing enclave code.
func (e *Enclave) Interrupt() {
	e.p.mu.Lock()
	e.aex++
	e.p.mu.Unlock()
	e.mem.charge(causeAEX, e.p.cfg.Cost.AEX)
}

// AEXCount returns the number of asynchronous exits so far (interrupts and
// EPC faults).
func (e *Enclave) AEXCount() uint64 {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return e.aex
}

// Alloc reserves size bytes of enclave heap and returns its simulated
// address. Allocation is only valid after EInit (the heap pages were added,
// zeroed, at build time as in SGX v1).
func (e *Enclave) Alloc(size int) (uint64, error) {
	if e.state != StateInitialized {
		return 0, ErrNotInitialized
	}
	n := align(uint64(size), 8)
	if e.heapNext+n > e.size {
		return 0, ErrRangeFull
	}
	addr := e.base + e.heapNext
	e.heapNext += n
	return addr, nil
}

// HeapArena returns an Arena over the remaining enclave heap.
func (e *Enclave) HeapArena() (*Arena, error) {
	if e.state != StateInitialized {
		return nil, ErrNotInitialized
	}
	a := NewArena(e.mem, e.base+e.heapNext, e.size-e.heapNext)
	e.heapNext = e.size
	return a, nil
}

// Destroy releases the enclave's EPC pages (EREMOVE).
func (e *Enclave) Destroy() {
	if e.state == StateDestroyed {
		return
	}
	e.state = StateDestroyed
	e.p.mu.Lock()
	e.p.pager.release(e.base, e.size)
	delete(e.p.enclaves, e.id)
	e.p.mu.Unlock()
}

func (e *Enclave) extend(op string, data []byte) {
	e.measuring.Write([]byte(op))
	e.measuring.Write(binaryU64(uint64(len(data))))
	e.measuring.Write(data)
}

func binaryU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
