package sconert

import (
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/fsshield"
	"securecloud/internal/shield"
)

// Runtime is one booted SCONE runtime: an attested enclave holding its SCF,
// with a shielded syscall interface and a protected file-system view. It is
// what a secure container runs.
type Runtime struct {
	enc    *enclave.Enclave
	shield *shield.Shield
	scf    SCF
	fs     *fsshield.FS

	stdoutFD int
	stderrFD int
}

// BootConfig gathers the pieces needed to boot a runtime.
type BootConfig struct {
	Enclave *enclave.Enclave
	Quoter  *attest.Quoter
	CAS     *CAS
	Host    *shield.Host
	Mode    shield.CallMode
	// SealedProtectionFile is the encrypted FS protection file from the
	// image; nil when the container has no protected files.
	SealedProtectionFile []byte
	// Blobs are the ciphertext chunks of the protected file system.
	Blobs map[string][][]byte
}

// ErrFSHashMismatch is returned when the protection file in the image does
// not match the hash pinned in the SCF (a substituted or stale image).
var ErrFSHashMismatch = errors.New("sconert: FS protection file does not match SCF hash")

// Boot runs the secure container startup sequence: attest, fetch the SCF
// over the protected channel, verify and open the FS protection file, and
// wire up shielded stdio streams.
func Boot(cfg BootConfig) (*Runtime, error) {
	if cfg.Enclave == nil || cfg.Quoter == nil || cfg.CAS == nil || cfg.Host == nil {
		return nil, errors.New("sconert: incomplete boot configuration")
	}
	scf, err := FetchSCF(cfg.Enclave, cfg.Quoter, cfg.CAS)
	if err != nil {
		return nil, fmt.Errorf("sconert: fetching SCF: %w", err)
	}
	rt := &Runtime{
		enc:    cfg.Enclave,
		shield: shield.New(cfg.Enclave, cfg.Host, cfg.Mode),
		scf:    scf,
	}
	if cfg.SealedProtectionFile != nil {
		if got := cryptbox.Sum(cfg.SealedProtectionFile); got != scf.FSProtectionHash {
			return nil, ErrFSHashMismatch
		}
		pf, err := fsshield.OpenSealed(cfg.SealedProtectionFile, scf.FSProtectionKey)
		if err != nil {
			return nil, fmt.Errorf("sconert: opening protection file: %w", err)
		}
		rt.fs = fsshield.OpenFS(pf, cfg.Blobs)
	}
	if rt.stdoutFD, err = rt.shield.Open("stdio/stdout", &scf.StdoutKey); err != nil {
		return nil, err
	}
	if rt.stderrFD, err = rt.shield.Open("stdio/stderr", &scf.StderrKey); err != nil {
		return nil, err
	}
	return rt, nil
}

// SCF returns the runtime's startup configuration.
func (rt *Runtime) SCF() SCF { return rt.scf }

// Enclave returns the underlying enclave.
func (rt *Runtime) Enclave() *enclave.Enclave { return rt.enc }

// Shield returns the syscall shield.
func (rt *Runtime) Shield() *shield.Shield { return rt.shield }

// FS returns the protected file system, or nil if the image had none.
func (rt *Runtime) FS() *fsshield.FS { return rt.fs }

// Stdout writes an encrypted record to the container's stdout stream.
func (rt *Runtime) Stdout(line []byte) error {
	_, err := rt.shield.Write(rt.stdoutFD, line)
	return err
}

// Stderr writes an encrypted record to the container's stderr stream.
func (rt *Runtime) Stderr(line []byte) error {
	_, err := rt.shield.Write(rt.stderrFD, line)
	return err
}

// TCBBytes reports the amount of code+data inside the trusted computing
// base of this container: the enclave's committed pages. Everything else —
// Docker, the kernel, the hypervisor — stays outside, which is the point of
// the architecture (paper §III-A).
func (rt *Runtime) TCBBytes() uint64 {
	return rt.enc.Size()
}

// Scheduler is SCONE's user-level M:N scheduler: M application tasks
// multiplex onto N enclave threads (TCS). A task that would block on a
// syscall yields inside the enclave instead of exiting, so the expensive
// world switch is paid once per worker, not once per task or per syscall.
type Scheduler struct {
	enc *enclave.Enclave
	tcs int

	mu    sync.Mutex
	queue []func()

	tasksRun    uint64
	entriesUsed uint64
}

// NewScheduler builds a scheduler with the given number of TCS.
func NewScheduler(enc *enclave.Enclave, tcs int) *Scheduler {
	if tcs <= 0 {
		tcs = 1
	}
	return &Scheduler{enc: enc, tcs: tcs}
}

// Go queues a task for execution inside the enclave.
func (s *Scheduler) Go(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, fn)
}

// Run drains the task queue with up to TCS concurrent enclave threads and
// returns when all tasks have finished. Each worker enters the enclave
// once, runs many tasks, and exits once.
func (s *Scheduler) Run() error {
	s.mu.Lock()
	tasks := s.queue
	s.queue = nil
	s.mu.Unlock()
	if len(tasks) == 0 {
		return nil
	}

	workers := s.tcs
	if workers > len(tasks) {
		workers = len(tasks)
	}
	next := make(chan func())
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.enc.EEnter(); err != nil {
				errOnce.Do(func() { firstErr = err })
				// Drain so the feeder does not block.
				for range next {
				}
				return
			}
			s.mu.Lock()
			s.entriesUsed++
			s.mu.Unlock()
			for fn := range next {
				fn()
				s.mu.Lock()
				s.tasksRun++
				s.mu.Unlock()
			}
			_ = s.enc.EExit()
		}()
	}
	for _, fn := range tasks {
		next <- fn
	}
	close(next)
	wg.Wait()
	return firstErr
}

// SchedulerStats is the scheduler's counter snapshot. The gap between
// Tasks and Entries is the number of world switches the M:N design
// avoided.
type SchedulerStats struct {
	// Tasks counts user-level tasks executed.
	Tasks uint64
	// Entries counts enclave entries (EENTERs) used to run them.
	Entries uint64
}

// Stats returns the scheduler's counters so far.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{Tasks: s.tasksRun, Entries: s.entriesUsed}
}

// StatsName implements stats.Source.
func (s *Scheduler) StatsName() string { return "sconert" }

// Snapshot implements stats.Source.
func (s *Scheduler) Snapshot() map[string]float64 {
	st := s.Stats()
	return map[string]float64{
		"tasks":   float64(st.Tasks),
		"entries": float64(st.Entries),
	}
}
