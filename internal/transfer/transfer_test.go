package transfer

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"securecloud/internal/cryptbox"
	"securecloud/internal/sim"
)

// payload generates compressible-but-not-trivial test data.
func payload(n int) []byte {
	rng := sim.NewRand(9)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(16))
	}
	return out
}

func TestPackReceiveRoundTrip(t *testing.T) {
	data := payload(1 << 20)
	m, chunks, err := PackConvergent("meters.tar", data, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks() != 16 {
		t.Fatalf("chunks = %d, want 16", m.Chunks())
	}
	r, err := NewReceiver(m)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver out of order.
	for i := len(chunks) - 1; i >= 0; i-- {
		if err := r.Accept(i, chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestCompressionShrinksRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("meter-00042,1.234,229.8\n"), 10000)
	_, chunks, err := PackConvergent("readings.csv", data, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total >= len(data)/2 {
		t.Fatalf("compressed size %d not < half of %d", total, len(data))
	}
}

// TestChunksOpaque: with the payload split into many small chunks, a
// secret spliced into random data stays invisible in every sealed chunk.
func TestChunksOpaque(t *testing.T) {
	secret := []byte("SECRET-READING")
	data := payload(64 << 10)
	for off := 0; off+len(secret) <= len(data); off += 700 {
		copy(data[off:], secret)
	}
	m, chunks, err := PackConvergent("x", data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("chunks = %d, want a multi-chunk payload", len(chunks))
	}
	for i, c := range chunks {
		if bytes.Contains(c, secret) {
			t.Fatalf("plaintext visible in transfer chunk %d", i)
		}
	}
	r, err := NewReceiver(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if err := r.Accept(i, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestTamperedChunkRejectedOnAccept(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(300<<10), 64<<10)
	r, _ := NewReceiver(m)
	bad := append([]byte(nil), chunks[2]...)
	bad[10] ^= 1
	if err := r.Accept(2, bad); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v, want ErrBadChunk", err)
	}
}

func TestChunkIndexSwapRejected(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(300<<10), 64<<10)
	r, _ := NewReceiver(m)
	if err := r.Accept(0, chunks[1]); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("chunk delivered under wrong index accepted: %v", err)
	}
}

func TestOutOfRangeIndex(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(1000), 512)
	r, _ := NewReceiver(m)
	if err := r.Accept(99, chunks[0]); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v", err)
	}
	if err := r.Accept(-1, chunks[0]); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v", err)
	}
}

func TestResumeAfterInterruption(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(640<<10), 64<<10)
	r, _ := NewReceiver(m)
	// First session delivers even chunks only.
	for i := 0; i < len(chunks); i += 2 {
		if err := r.Accept(i, chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if r.Complete() {
		t.Fatal("complete with half the chunks")
	}
	missing := r.Missing()
	if len(missing) != len(chunks)/2 {
		t.Fatalf("missing %d, want %d", len(missing), len(chunks)/2)
	}
	if _, err := r.Assemble(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("assemble incomplete: %v", err)
	}
	// Resume: deliver exactly what is missing.
	for _, i := range missing {
		if err := r.Accept(i, chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Complete() {
		t.Fatal("not complete after resume")
	}
	if _, err := r.Assemble(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDeliveryIdempotent(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(2048), 1024)
	r, _ := NewReceiver(m)
	for i := 0; i < 3; i++ {
		if err := r.Accept(0, chunks[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Missing()) != len(chunks)-1 {
		t.Fatal("duplicate delivery corrupted progress tracking")
	}
}

func TestForgedManifestRejected(t *testing.T) {
	m, _, _ := PackConvergent("x", payload(4096), 1024)
	m.Leaves[0][0] ^= 1 // leaves no longer match root
	if _, err := NewReceiver(m); !errors.Is(err, ErrManifest) {
		t.Fatalf("err = %v, want ErrManifest", err)
	}
}

// TestWrongKeyFailsAtAssemble: the Merkle root covers the sealed chunks,
// not the keys, so a manifest whose key for one chunk is wrong validates,
// accepts every chunk, and fails only when that chunk is opened.
func TestWrongKeyFailsAtAssemble(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(2048), 1024)
	m.Keys[1][0] ^= 0xDD
	r, err := NewReceiver(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if err := r.Accept(i, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Assemble(); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v, want ErrBadChunk", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	m, chunks, err := PackConvergent("empty", nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReceiver(m)
	for i, c := range chunks {
		if err := r.Accept(i, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload assembled to %d bytes", len(got))
	}
}

func TestMerkleRootProperties(t *testing.T) {
	mk := func(vals ...byte) []cryptbox.Digest {
		var out []cryptbox.Digest
		for _, v := range vals {
			out = append(out, cryptbox.Sum([]byte{v}))
		}
		return out
	}
	if MerkleRoot(mk(1, 2)) == MerkleRoot(mk(2, 1)) {
		t.Fatal("root ignores leaf order")
	}
	if MerkleRoot(mk(1, 2, 3)) == MerkleRoot(mk(1, 2)) {
		t.Fatal("root ignores extra leaf")
	}
	if MerkleRoot(mk(1)) != MerkleRoot(mk(1)) {
		t.Fatal("root not deterministic")
	}
	if MerkleRoot(nil) == (cryptbox.Digest{}) {
		t.Fatal("empty root is zero digest")
	}
}

func TestPropPackAssembleRoundTrip(t *testing.T) {
	f := func(data []byte, chunkPow uint8) bool {
		cs := 64 << (chunkPow % 6) // 64..2048
		m, chunks, err := PackConvergent("p", data, cs)
		if err != nil {
			return false
		}
		r, err := NewReceiver(m)
		if err != nil {
			return false
		}
		for i, c := range chunks {
			if err := r.Accept(i, c); err != nil {
				return false
			}
		}
		got, err := r.Assemble()
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
