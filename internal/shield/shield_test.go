package shield

import (
	"bytes"
	"errors"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

func testEnclave(t *testing.T) *enclave.Enclave {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	e, err := p.ECreate(1<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EAdd([]byte("microservice")); err != nil {
		t.Fatal(err)
	}
	if err := e.EInit(); err != nil {
		t.Fatal(err)
	}
	return e
}

func testKey() cryptbox.Key {
	var k cryptbox.Key
	for i := range k {
		k[i] = byte(i * 3)
	}
	return k
}

func TestUnprotectedWriteReadThroughHost(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	fd, err := s.Open("/tmp/log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(fd, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Read(fd)
	if err != nil || !ok {
		t.Fatalf("Read: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("got %q", got)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestProtectedStreamRoundTrip(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeAsync)
	k := testKey()
	fd, err := s.Open("/data/meters", &k)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []string{"m1=42.0", "m2=17.3", "m3=0.1"}
	for _, m := range msgs {
		if _, err := s.Write(fd, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, ok, err := s.Read(fd)
		if err != nil || !ok {
			t.Fatalf("Read: ok=%v err=%v", ok, err)
		}
		if string(got) != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if _, ok, _ := s.Read(fd); ok {
		t.Fatal("read past end of stream")
	}
}

func TestProtectedStreamCiphertextOnHost(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	k := testKey()
	fd, _ := s.Open("/data/secret", &k)
	if _, err := s.Write(fd, []byte("PLAINTEXT-MARKER")); err != nil {
		t.Fatal(err)
	}
	for _, rec := range h.Records("/data/secret") {
		if bytes.Contains(rec, []byte("PLAINTEXT-MARKER")) {
			t.Fatal("plaintext reached the untrusted host")
		}
	}
}

func TestHostTamperingDetected(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	k := testKey()
	fd, _ := s.Open("/f", &k)
	_, _ = s.Write(fd, []byte("record"))
	h.SetCorruption(func(path string, idx int, rec []byte) []byte {
		rec[len(rec)-1] ^= 1
		return rec
	})
	if _, _, err := s.Read(fd); !errors.Is(err, ErrHostMisbehaved) {
		t.Fatalf("tampered record: err = %v, want ErrHostMisbehaved", err)
	}
}

func TestHostReplayDetected(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	k := testKey()
	fd, _ := s.Open("/f", &k)
	_, _ = s.Write(fd, []byte("first"))
	_, _ = s.Write(fd, []byte("second"))
	// Malicious host replays record 0 in place of record 1.
	var first []byte
	h.SetCorruption(func(path string, idx int, rec []byte) []byte {
		if idx == 0 {
			first = append([]byte(nil), rec...)
			return rec
		}
		return first
	})
	if _, _, err := s.Read(fd); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, _, err := s.Read(fd); !errors.Is(err, ErrHostMisbehaved) {
		t.Fatalf("replayed record: err = %v, want ErrHostMisbehaved", err)
	}
}

func TestHostDroppedRecordDetected(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	k := testKey()
	fd, _ := s.Open("/f", &k)
	_, _ = s.Write(fd, []byte("first"))
	_, _ = s.Write(fd, []byte("second"))
	h.DropRecord("/f", 0)
	// The shield expects seq 0 but receives the record sealed as seq 1.
	if _, _, err := s.Read(fd); !errors.Is(err, ErrHostMisbehaved) {
		t.Fatalf("dropped record: err = %v, want ErrHostMisbehaved", err)
	}
}

func TestOversizedHostReturnRejected(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	fd, _ := s.Open("/f", nil)
	_, _ = s.Write(fd, []byte("x"))
	h.SetCorruption(func(path string, idx int, rec []byte) []byte {
		return make([]byte, MaxRecord+1024)
	})
	if _, _, err := s.Read(fd); !errors.Is(err, ErrHostMisbehaved) {
		t.Fatalf("oversized return: err = %v, want ErrHostMisbehaved", err)
	}
}

func TestOversizedWriteRejected(t *testing.T) {
	e := testEnclave(t)
	s := New(e, NewHost(), ModeSync)
	fd, _ := s.Open("/f", nil)
	if _, err := s.Write(fd, make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestBadFDErrors(t *testing.T) {
	e := testEnclave(t)
	s := New(e, NewHost(), ModeSync)
	if _, err := s.Write(99, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write to bad fd: %v", err)
	}
	if _, _, err := s.Read(99); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read from bad fd: %v", err)
	}
	if err := s.Close(99); !errors.Is(err, ErrBadFD) {
		t.Fatalf("close bad fd: %v", err)
	}
}

func TestUseAfterClose(t *testing.T) {
	e := testEnclave(t)
	s := New(e, NewHost(), ModeSync)
	fd, _ := s.Open("/f", nil)
	_ = s.Close(fd)
	if _, err := s.Write(fd, []byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestSyncChargesTransitionsAsyncDoesNot(t *testing.T) {
	const calls = 50

	costOf := func(mode CallMode) (transitions uint64) {
		e := testEnclave(t)
		h := NewHost()
		s := New(e, h, mode)
		fd, _ := s.Open("/f", nil)
		before := e.Memory().Breakdown()[enclave.CauseTransition]
		for i := 0; i < calls; i++ {
			if _, err := s.Write(fd, []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		after := e.Memory().Breakdown()[enclave.CauseTransition]
		return uint64(after - before)
	}

	syncCost := costOf(ModeSync)
	asyncCost := costOf(ModeAsync)
	if syncCost == 0 {
		t.Fatal("sync mode charged no transitions")
	}
	if asyncCost != 0 {
		t.Fatalf("async mode charged %d transition cycles, want 0", asyncCost)
	}
}

func TestAsyncCheaperThanSyncEndToEnd(t *testing.T) {
	const calls = 200
	run := func(mode CallMode) uint64 {
		e := testEnclave(t)
		s := New(e, NewHost(), mode)
		fd, _ := s.Open("/f", nil)
		e.Memory().ResetAccounting()
		for i := 0; i < calls; i++ {
			if _, err := s.Write(fd, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		return uint64(e.Memory().Cycles())
	}
	sync, async := run(ModeSync), run(ModeAsync)
	if async >= sync {
		t.Fatalf("async (%d cycles) not cheaper than sync (%d cycles)", async, sync)
	}
}

func TestCallsCounted(t *testing.T) {
	e := testEnclave(t)
	s := New(e, NewHost(), ModeSync)
	fd, _ := s.Open("/f", nil)
	_, _ = s.Write(fd, []byte("x"))
	_, _, _ = s.Read(fd)
	_ = s.Close(fd)
	if got := s.Calls(); got != 4 {
		t.Fatalf("Calls = %d, want 4 (open+write+read+close)", got)
	}
}

func TestHostSyscallAccounting(t *testing.T) {
	h := NewHost()
	fd, _ := h.Open("/f")
	_, _ = h.Write(fd, []byte("x"))
	_ = h.Close(fd)
	if h.SyscallCount() != 3 {
		t.Fatalf("SyscallCount = %d, want 3", h.SyscallCount())
	}
	if got, want := h.KernelCycles(), 3*h.KernelCost; got != want {
		t.Fatalf("KernelCycles = %d, want %d", got, want)
	}
}

func TestTwoStreamsIndependentKeys(t *testing.T) {
	e := testEnclave(t)
	h := NewHost()
	s := New(e, h, ModeSync)
	k1, k2 := testKey(), testKey()
	k2[0] ^= 0xFF
	fd1, _ := s.Open("/a", &k1)
	fd2, _ := s.Open("/b", &k2)
	_, _ = s.Write(fd1, []byte("for-a"))
	_, _ = s.Write(fd2, []byte("for-b"))
	got1, _, err1 := s.Read(fd1)
	got2, _, err2 := s.Read(fd2)
	if err1 != nil || err2 != nil {
		t.Fatalf("reads failed: %v %v", err1, err2)
	}
	if string(got1) != "for-a" || string(got2) != "for-b" {
		t.Fatal("stream data crossed")
	}
}
