package shield

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// CallMode selects how the shield crosses the enclave boundary.
type CallMode int

const (
	// ModeSync exits the enclave for every system call (one EEXIT/EENTER
	// pair each), like a naive libc inside an enclave.
	ModeSync CallMode = iota
	// ModeAsync places requests in a shared-memory queue serviced by host
	// threads while the enclave thread yields to SCONE's user-level
	// scheduler; no world switch is needed.
	ModeAsync
)

func (m CallMode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "async"
}

// MaxRecord bounds the size of any record the shield will accept from the
// host. Host-returned buffers beyond this are rejected before any copy,
// one of the shield's Iago-attack sanity checks.
const MaxRecord = 1 << 20

// ErrHostMisbehaved is returned when the untrusted host violates interface
// invariants (oversized returns, bad sequence, failed authentication).
var ErrHostMisbehaved = errors.New("shield: untrusted host misbehaved")

// queueSlotBytes models the shared-memory request/response slot size of the
// asynchronous interface (two cache lines: request descriptor + response).
const queueSlotBytes = 128

// Shield is the per-enclave system-call shield.
type Shield struct {
	enc  *enclave.Enclave
	host *Host
	mode CallMode

	// queueAddr is the simulated address of the async request queue in
	// untrusted memory; writes to it are charged to the enclave's view
	// (the enclave copies arguments out) without a world switch.
	untrusted *enclave.Memory
	queueAddr uint64
	queuePos  uint64

	mu      sync.Mutex
	streams map[int]*stream
	calls   uint64
}

// stream is the shield state of one protected file descriptor.
type stream struct {
	key      cryptbox.Key
	box      *cryptbox.Box
	label    string
	writeSeq uint64
	readSeq  uint64
}

// New builds a shield for enc over host in the given call mode.
func New(enc *enclave.Enclave, host *Host, mode CallMode) *Shield {
	p := enc.Platform()
	return &Shield{
		enc:       enc,
		host:      host,
		mode:      mode,
		untrusted: p.UntrustedMemory(),
		queueAddr: p.AllocUntrusted(64 * queueSlotBytes),
		streams:   make(map[int]*stream),
	}
}

// Calls returns the number of shielded calls issued.
func (s *Shield) Calls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// crossBoundary charges the cost of getting one request to the host and its
// response back, according to the call mode.
func (s *Shield) crossBoundary(payload int) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.mode == ModeSync {
		s.enc.OCall()
		return
	}
	// Async: the enclave thread writes the request descriptor and payload
	// into the untrusted queue and later reads the response slot. No world
	// switch; just (simulated) memory traffic.
	slot := s.queueAddr + (s.queuePos%64)*queueSlotBytes
	s.queuePos++
	s.enc.Memory().AccessRange(slot, queueSlotBytes/2, true)
	if payload > 0 {
		s.enc.Memory().AccessRange(slot, min(payload, queueSlotBytes/2), true)
	}
	s.enc.Memory().AccessRange(slot+queueSlotBytes/2, queueSlotBytes/2, false)
}

// Open opens path through the shield. When key is non-nil the descriptor is
// protected: all records written through it are transparently encrypted and
// authenticated with a per-stream sequence number (freshness), and reads
// verify before any byte reaches application code.
func (s *Shield) Open(path string, key *cryptbox.Key) (int, error) {
	s.crossBoundary(len(path))
	fd, err := s.host.Open(path)
	if err != nil {
		return 0, err
	}
	if key != nil {
		box, err := cryptbox.NewBox(*key)
		if err != nil {
			return 0, err
		}
		s.mu.Lock()
		s.streams[fd] = &stream{key: *key, box: box, label: path}
		s.mu.Unlock()
	}
	return fd, nil
}

// seqAAD binds a record to its stream and position.
func seqAAD(label string, seq uint64) []byte {
	b := make([]byte, 0, len(label)+9)
	b = append(b, label...)
	b = append(b, '|')
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], seq)
	return append(b, n[:]...)
}

// Write sends data through fd. On protected descriptors the host only ever
// sees ciphertext.
func (s *Shield) Write(fd int, data []byte) (int, error) {
	if len(data) > MaxRecord {
		return 0, fmt.Errorf("%w: record of %d bytes exceeds limit", ErrHostMisbehaved, len(data))
	}
	s.mu.Lock()
	st := s.streams[fd]
	s.mu.Unlock()
	payload := data
	if st != nil {
		sealed, err := st.box.Seal(data, seqAAD(st.label, st.writeSeq))
		if err != nil {
			return 0, err
		}
		st.writeSeq++
		payload = sealed
	}
	s.crossBoundary(len(payload))
	if _, err := s.host.Write(fd, payload); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Read returns the next record from fd, verifying and decrypting protected
// streams. ok is false at end of stream.
func (s *Shield) Read(fd int) (data []byte, ok bool, err error) {
	s.crossBoundary(0)
	rec, ok, err := s.host.Read(fd)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	// Sanity checks before copying host memory into the enclave.
	if len(rec) > MaxRecord+64 {
		return nil, false, fmt.Errorf("%w: host returned %d-byte record", ErrHostMisbehaved, len(rec))
	}
	s.mu.Lock()
	st := s.streams[fd]
	s.mu.Unlock()
	if st == nil {
		return rec, true, nil
	}
	plain, err := st.box.Open(rec, seqAAD(st.label, st.readSeq))
	if err != nil {
		return nil, false, fmt.Errorf("%w: record %d of %s failed authentication",
			ErrHostMisbehaved, st.readSeq, st.label)
	}
	st.readSeq++
	return plain, true, nil
}

// Close closes fd through the shield.
func (s *Shield) Close(fd int) error {
	s.crossBoundary(0)
	s.mu.Lock()
	delete(s.streams, fd)
	s.mu.Unlock()
	return s.host.Close(fd)
}

// OpenRecord authenticates and decrypts one record of a protected stream
// outside the enclave — the counterpart a remote party holding the stream
// key (e.g. the SCONE client reading a container's encrypted stdout) uses.
func OpenRecord(key cryptbox.Key, label string, seq uint64, rec []byte) ([]byte, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	plain, err := box.Open(rec, seqAAD(label, seq))
	if err != nil {
		return nil, fmt.Errorf("%w: record %d of %s failed authentication", ErrHostMisbehaved, seq, label)
	}
	return plain, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
