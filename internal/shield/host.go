// Package shield implements SCONE's shielded system-call interface (paper
// §IV): enclave code never issues system calls directly. Instead, calls go
// through a shield that (i) copies all memory-based arguments and return
// values across the enclave boundary with sanity checks, defending against
// a malicious OS (Iago attacks), (ii) transparently encrypts and
// authenticates all data flowing through protected file descriptors, and
// (iii) offers an asynchronous call path over shared-memory queues so
// enclave threads avoid the expensive world switch of a synchronous exit.
package shield

import (
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/sim"
)

// Host simulates the untrusted operating system: an in-memory record-
// oriented file system plus a per-syscall kernel cost. Everything the Host
// stores or returns is attacker-controlled in the SecureCloud threat model;
// the fault-injection hooks let tests exercise exactly that.
type Host struct {
	mu     sync.Mutex
	files  map[string][][]byte // path -> records
	fds    map[int]*hostFD
	nextFD int

	// KernelCost is the cycle cost of one syscall inside the host kernel.
	KernelCost sim.Cycles
	ledger     sim.Counter

	// corrupt, if set, may rewrite any record returned by Read. It models
	// a malicious or buggy OS for Iago-attack tests.
	corrupt func(path string, idx int, rec []byte) []byte
}

type hostFD struct {
	path    string
	readPos int
	open    bool
}

// Host errors. These model errno values from the untrusted kernel.
var (
	ErrBadFD    = errors.New("shield: bad file descriptor")
	ErrClosedFD = errors.New("shield: file descriptor closed")
)

// NewHost returns an empty simulated host OS.
func NewHost() *Host {
	return &Host{
		files:      make(map[string][][]byte),
		fds:        make(map[int]*hostFD),
		nextFD:     3, // 0..2 reserved for stdio by convention
		KernelCost: 1500,
	}
}

// SetCorruption installs a record-rewriting hook used by fault-injection
// tests. Pass nil to restore honest behaviour.
func (h *Host) SetCorruption(fn func(path string, idx int, rec []byte) []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.corrupt = fn
}

// SyscallCount returns the number of syscalls serviced.
func (h *Host) SyscallCount() uint64 { return h.ledger.Events("syscall") }

// KernelCycles returns total cycles spent in the simulated kernel.
func (h *Host) KernelCycles() sim.Cycles { return h.ledger.Total() }

func (h *Host) charge() { h.ledger.Charge("syscall", h.KernelCost) }

// Open opens (creating if needed) the file at path and returns a descriptor.
func (h *Host) Open(path string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.charge()
	if _, ok := h.files[path]; !ok {
		h.files[path] = nil
	}
	fd := h.nextFD
	h.nextFD++
	h.fds[fd] = &hostFD{path: path, open: true}
	return fd, nil
}

// Write appends one record to the file behind fd.
func (h *Host) Write(fd int, rec []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.charge()
	f, err := h.lookup(fd)
	if err != nil {
		return 0, err
	}
	h.files[f.path] = append(h.files[f.path], append([]byte(nil), rec...))
	return len(rec), nil
}

// Read returns the next record from fd, or (nil, io.EOF-like false) when
// exhausted. A corrupt host may return arbitrary bytes.
func (h *Host) Read(fd int) ([]byte, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.charge()
	f, err := h.lookup(fd)
	if err != nil {
		return nil, false, err
	}
	recs := h.files[f.path]
	if f.readPos >= len(recs) {
		return nil, false, nil
	}
	rec := recs[f.readPos]
	if h.corrupt != nil {
		rec = h.corrupt(f.path, f.readPos, append([]byte(nil), rec...))
	}
	f.readPos++
	return rec, true, nil
}

// Close releases fd.
func (h *Host) Close(fd int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.charge()
	f, err := h.lookup(fd)
	if err != nil {
		return err
	}
	f.open = false
	delete(h.fds, fd)
	return nil
}

// Records returns a copy of the raw records stored for path — what an
// attacker inspecting host storage would see.
func (h *Host) Records(path string) [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	recs := h.files[path]
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

// DropRecord deletes record idx of path (models truncation by the host).
func (h *Host) DropRecord(path string, idx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	recs := h.files[path]
	if idx < 0 || idx >= len(recs) {
		return
	}
	h.files[path] = append(recs[:idx:idx], recs[idx+1:]...)
}

func (h *Host) lookup(fd int) (*hostFD, error) {
	f, ok := h.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	if !f.open {
		return nil, fmt.Errorf("%w: %d", ErrClosedFD, fd)
	}
	return f, nil
}
