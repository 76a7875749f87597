package fsshield

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"securecloud/internal/cryptbox"
)

func rootKey() cryptbox.Key {
	var k cryptbox.Key
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeEncrypted, ModeIntegrityOnly} {
		fs := NewFS(1024)
		data := bytes.Repeat([]byte("smart-grid-telemetry."), 500) // ~10 chunks
		if err := fs.WriteFile("/data/meters.csv", data, mode, rootKey()); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile("/data/meters.csv")
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mode %v: round trip mismatch", mode)
		}
	}
}

func TestEncryptedModeHidesPlaintext(t *testing.T) {
	fs := NewFS(1024)
	secret := bytes.Repeat([]byte("SECRETSECRET"), 200)
	if err := fs.WriteFile("/etc/key.pem", secret, ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range fs.Blobs()["/etc/key.pem"] {
		if bytes.Contains(chunk, []byte("SECRETSECRET")) {
			t.Fatal("plaintext visible in encrypted blob")
		}
	}
}

func TestIntegrityOnlyKeepsPlaintextReadable(t *testing.T) {
	fs := NewFS(1024)
	if err := fs.WriteFile("/app/config.yaml", []byte("listen: :8080"), ModeIntegrityOnly, rootKey()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fs.Blobs()["/app/config.yaml"][0], []byte("listen")) {
		t.Fatal("integrity-only blob is not readable plaintext")
	}
}

func TestTamperedChunkDetected(t *testing.T) {
	for _, mode := range []Mode{ModeEncrypted, ModeIntegrityOnly} {
		fs := NewFS(512)
		data := bytes.Repeat([]byte("x"), 2000)
		if err := fs.WriteFile("/f", data, mode, rootKey()); err != nil {
			t.Fatal(err)
		}
		// Tamper the untrusted store directly (Blobs() hands out copies).
		fs.blobs["/f"][2][0] ^= 1
		if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrTampered) {
			t.Fatalf("mode %v: tampering not detected: %v", mode, err)
		}
	}
}

func TestChunkReorderDetected(t *testing.T) {
	fs := NewFS(512)
	data := append(bytes.Repeat([]byte("A"), 512), bytes.Repeat([]byte("B"), 512)...)
	if err := fs.WriteFile("/f", data, ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	b := fs.blobs["/f"]
	b[0], b[1] = b[1], b[0]
	if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrTampered) {
		t.Fatalf("chunk reordering not detected: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("x"), 2048), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	fs.blobs["/f"] = fs.blobs["/f"][:2]
	if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrShortRead) {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestCrossFileSpliceDetected(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/a", bytes.Repeat([]byte("a"), 512), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", bytes.Repeat([]byte("b"), 512), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	fs.blobs["/a"][0] = fs.blobs["/b"][0]
	if _, err := fs.ReadFile("/a"); !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-file splice not detected: %v", err)
	}
}

func TestRollbackToOldVersionDetected(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/f", []byte("version-1"), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	old := fs.blobs["/f"][0]
	if err := fs.WriteFile("/f", []byte("version-2"), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	fs.blobs["/f"][0] = old
	if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrTampered) {
		t.Fatalf("rollback to stale chunk not detected: %v", err)
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := NewFS(0)
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/empty", nil, ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read back %d bytes", len(got))
	}
}

func TestReadChunkRandomAccess(t *testing.T) {
	fs := NewFS(512)
	data := make([]byte, 512*3)
	for i := range data {
		data[i] = byte(i / 512)
	}
	if err := fs.WriteFile("/f", data, ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	chunk, err := fs.ReadChunk("/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, data[512:1024]) {
		t.Fatal("ReadChunk returned wrong data")
	}
	if _, err := fs.ReadChunk("/f", 99); !errors.Is(err, ErrShortRead) {
		t.Fatalf("out-of-range chunk: %v", err)
	}
	if _, err := fs.ReadChunk("/nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file chunk: %v", err)
	}
}

func TestProtectionFileSealRoundTrip(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/f", []byte("data"), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	key, _ := cryptbox.DeriveKey(rootKey(), "pf")
	blob, err := fs.ProtectionFile().Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := OpenSealed(blob, key)
	if err != nil {
		t.Fatal(err)
	}
	got := OpenFS(pf, fs.Blobs())
	data, err := got.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("data")) {
		t.Fatal("data mismatch after protection file round trip")
	}
}

func TestProtectionFileSealWrongKey(t *testing.T) {
	pf := NewProtectionFile(0)
	k1, _ := cryptbox.DeriveKey(rootKey(), "a")
	k2, _ := cryptbox.DeriveKey(rootKey(), "b")
	blob, _ := pf.Seal(k1)
	if _, err := OpenSealed(blob, k2); err == nil {
		t.Fatal("wrong key opened sealed protection file")
	}
}

func TestPathsSorted(t *testing.T) {
	fs := NewFS(0)
	for _, p := range []string{"/c", "/a", "/b"} {
		if err := fs.WriteFile(p, []byte("x"), ModeEncrypted, rootKey()); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.ProtectionFile().Paths()
	want := []string{"/a", "/b", "/c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Paths() = %v, want %v", got, want)
		}
	}
}

func TestRemove(t *testing.T) {
	fs := NewFS(0)
	if err := fs.WriteFile("/f", []byte("x"), ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	fs.Remove("/f")
	if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed file still readable: %v", err)
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	fs := NewFS(512)
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("z"), 1500), ModeIntegrityOnly, rootKey()); err != nil {
		t.Fatal(err)
	}
	raw, err := fs.ProtectionFile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pf.ChunkSize != 512 || len(pf.Files) != 1 {
		t.Fatal("protection file fields lost in marshal round trip")
	}
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage unmarshalled")
	}
}

func TestPropRoundTripArbitraryData(t *testing.T) {
	f := func(data []byte, encrypted bool) bool {
		mode := ModeIntegrityOnly
		if encrypted {
			mode = ModeEncrypted
		}
		fs := NewFS(256)
		if err := fs.WriteFile("/p", data, mode, rootKey()); err != nil {
			return false
		}
		got, err := fs.ReadFile("/p")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropAnyChunkBitFlipDetected(t *testing.T) {
	f := func(seed uint8, chunkIdx, byteIdx uint16) bool {
		fs := NewFS(128)
		data := bytes.Repeat([]byte{seed}, 128*4)
		if err := fs.WriteFile("/p", data, ModeEncrypted, rootKey()); err != nil {
			return false
		}
		chunks := fs.blobs["/p"]
		c := chunks[int(chunkIdx)%len(chunks)]
		c[int(byteIdx)%len(c)] ^= 0x40
		_, err := fs.ReadFile("/p")
		return errors.Is(err, ErrTampered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlobsReturnsCopies is the regression test for Blobs() handing out the
// live chunk map: mutating the returned map or its chunk bytes must not
// corrupt (or, worse, silently tamper with) the store's protected state.
func TestBlobsReturnsCopies(t *testing.T) {
	fs := NewFS(64)
	data := bytes.Repeat([]byte("durable"), 40)
	if err := fs.WriteFile("/a", data, ModeEncrypted, rootKey()); err != nil {
		t.Fatal(err)
	}
	blobs := fs.Blobs()
	for _, chunks := range blobs {
		for _, c := range chunks {
			for i := range c {
				c[i] ^= 0xFF
			}
		}
	}
	delete(blobs, "/a")
	got, err := fs.ReadFile("/a")
	if err != nil {
		t.Fatalf("store corrupted through Blobs() alias: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("store contents changed through Blobs() alias")
	}
}
