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

// unpackAll reassembles chunks through Unpack, fetching chunks[idx].
func unpackAll(m *Manifest, chunks [][]byte) ([]byte, error) {
	var out bytes.Buffer
	err := Unpack(m, cryptbox.Key{}, &out, func(idx int) ([]byte, error) { return chunks[idx], nil })
	return out.Bytes(), err
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
	got, err := unpackAll(m, chunks)
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
	got, err := unpackAll(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestTamperedChunkRejectedOnAccept: a chunk whose bytes differ from its
// leaf is refused before it is opened. A flipped bit would also fail
// authentication, but a chunk's convergent key is derived from its
// content, so anyone who knows that content can seal other bytes under the
// manifest's key: only the leaf check refuses such a forgery.
func TestTamperedChunkRejectedOnAccept(t *testing.T) {
	data := payload(300 << 10)
	m, chunks, _ := PackConvergent("x", data, 64<<10)
	bad := append([]byte(nil), chunks[2]...)
	bad[10] ^= 1
	forgedPlain := bytes.Repeat([]byte("F"), 64<<10)
	var zbuf bytes.Buffer
	compressed, err := deflate(&zbuf, forgedPlain)
	if err != nil {
		t.Fatal(err)
	}
	box, err := cryptbox.NewBox(m.Keys[2])
	if err != nil {
		t.Fatal(err)
	}
	forged, err := box.SealWithNonce(nil, make([]byte, cryptbox.NonceSize), compressed, convergentAAD)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string][]byte{"flipped bit": bad, "resealed under the manifest key": forged} {
		var out bytes.Buffer
		err := Unpack(m, cryptbox.Key{}, &out, func(idx int) ([]byte, error) {
			if idx == 2 {
				return c, nil
			}
			return chunks[idx], nil
		})
		if !errors.Is(err, ErrBadChunk) {
			t.Fatalf("%s: err = %v, want ErrBadChunk", name, err)
		}
		if !bytes.Equal(out.Bytes(), data[:2*64<<10]) {
			t.Fatalf("%s: %d bytes written, want the %d before chunk 2", name, out.Len(), 2*64<<10)
		}
	}
}

func TestChunkIndexSwapRejected(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(300<<10), 64<<10)
	swapped := append([][]byte{chunks[1], chunks[0]}, chunks[2:]...)
	if _, err := unpackAll(m, swapped); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("chunk delivered under wrong index accepted: %v", err)
	}
}

func TestForgedManifestRejected(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(4096), 1024)
	m.Leaves[0][0] ^= 1 // leaves no longer match root
	if _, err := unpackAll(m, chunks); !errors.Is(err, ErrManifest) {
		t.Fatalf("err = %v, want ErrManifest", err)
	}
}

// TestWrongKeyFailsAtAssemble: the Merkle root covers the sealed chunks,
// not the keys, so a manifest whose key for one chunk is wrong validates,
// passes every leaf check, and fails only when that chunk is opened.
func TestWrongKeyFailsAtAssemble(t *testing.T) {
	m, chunks, _ := PackConvergent("x", payload(2048), 1024)
	m.Keys[1][0] ^= 0xDD
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := unpackAll(m, chunks); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v, want ErrBadChunk", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	m, chunks, err := PackConvergent("empty", nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unpackAll(m, chunks)
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
		got, err := unpackAll(m, chunks)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
