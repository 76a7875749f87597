package cryptbox

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	box, err := NewBox(testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("smart meter reading 42.7 kWh")
	aad := []byte("meter-17")
	sealed, err := box.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := box.Open(sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: got %q want %q", got, pt)
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	box, _ := NewBox(testKey(1))
	sealed, _ := box.Seal([]byte("payload"), nil)
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x80
		if _, err := box.Open(bad, nil); err == nil {
			t.Fatalf("tampering byte %d went undetected", i)
		}
	}
}

func TestOpenInPlaceAliasesAndRejectsTampering(t *testing.T) {
	box, _ := NewBox(testKey(1))
	aad := []byte("meter-17")
	sealed, _ := box.Seal([]byte("payload"), aad)
	good := append([]byte(nil), sealed...)
	pt, err := box.OpenInPlace(good, aad)
	if err != nil || string(pt) != "payload" {
		t.Fatalf("OpenInPlace = %q, %v", pt, err)
	}
	if &pt[0] != &good[NonceSize] {
		t.Fatal("OpenInPlace plaintext does not alias the sealed buffer")
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x80
		if _, err := box.OpenInPlace(bad, aad); err != ErrAuth {
			t.Fatalf("tampering byte %d: err = %v, want ErrAuth", i, err)
		}
	}
	if _, err := box.OpenInPlace(append([]byte(nil), sealed...), []byte("meter-18")); err != ErrAuth {
		t.Fatalf("wrong AAD: err = %v, want ErrAuth", err)
	}
	for n := 0; n < box.Overhead(); n++ {
		if _, err := box.OpenInPlace(make([]byte, n), nil); err != ErrAuth {
			t.Fatalf("short input of %d bytes: err = %v, want ErrAuth", n, err)
		}
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	box, _ := NewBox(testKey(1))
	sealed, _ := box.Seal([]byte("payload"), []byte("meter-17"))
	if _, err := box.Open(sealed, []byte("meter-18")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	a, _ := NewBox(testKey(1))
	b, _ := NewBox(testKey(2))
	sealed, _ := a.Seal([]byte("payload"), nil)
	if _, err := b.Open(sealed, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	box, _ := NewBox(testKey(1))
	for n := 0; n < box.Overhead(); n++ {
		if _, err := box.Open(make([]byte, n), nil); err == nil {
			t.Fatalf("short input of %d bytes accepted", n)
		}
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	box, _ := NewBox(testKey(1))
	sealed, err := box.Seal(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := box.Open(sealed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty plaintext, got %d bytes", len(got))
	}
}

func TestSealUsesFreshNonces(t *testing.T) {
	box, _ := NewBox(testKey(1))
	a, _ := box.Seal([]byte("x"), nil)
	b, _ := box.Seal([]byte("x"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext were identical (nonce reuse)")
	}
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, KeySize-1)); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := KeyFromBytes(make([]byte, KeySize+1)); err == nil {
		t.Fatal("long key accepted")
	}
	k, err := KeyFromBytes(bytes.Repeat([]byte{7}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	if k != testKey(7) {
		t.Fatal("key bytes not copied")
	}
}

func TestNewRandomKeyDistinct(t *testing.T) {
	a, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two random keys were equal")
	}
}

func TestMACVerify(t *testing.T) {
	k := testKey(3)
	tag := MAC(k, []byte("data"))
	if !VerifyMAC(k, []byte("data"), tag) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(k, []byte("Data"), tag) {
		t.Fatal("MAC over different data accepted")
	}
	if VerifyMAC(testKey(4), []byte("data"), tag) {
		t.Fatal("MAC under different key accepted")
	}
}

func TestHKDFKnownLengths(t *testing.T) {
	for _, n := range []int{1, 16, 32, 33, 64, 255} {
		out, err := HKDF([]byte("ikm"), []byte("salt"), []byte("info"), n)
		if err != nil {
			t.Fatalf("HKDF length %d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("HKDF length %d returned %d bytes", n, len(out))
		}
	}
}

func TestHKDFTooLong(t *testing.T) {
	if _, err := HKDF([]byte("ikm"), nil, nil, 255*32+1); err == nil {
		t.Fatal("oversized HKDF output accepted")
	}
}

func TestHKDFDeterministicAndContextSeparated(t *testing.T) {
	a, _ := HKDF([]byte("ikm"), []byte("s"), []byte("ctx1"), 32)
	b, _ := HKDF([]byte("ikm"), []byte("s"), []byte("ctx1"), 32)
	c, _ := HKDF([]byte("ikm"), []byte("s"), []byte("ctx2"), 32)
	if !bytes.Equal(a, b) {
		t.Fatal("HKDF not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different info produced identical output")
	}
}

func TestHKDFPrefixConsistency(t *testing.T) {
	// RFC 5869: output for length n is a prefix of output for length m>n.
	long, _ := HKDF([]byte("ikm"), []byte("s"), []byte("i"), 64)
	short, _ := HKDF([]byte("ikm"), []byte("s"), []byte("i"), 16)
	if !bytes.Equal(long[:16], short) {
		t.Fatal("HKDF prefix property violated")
	}
}

func TestDeriveKeyLabels(t *testing.T) {
	root := testKey(9)
	seal, err := DeriveKey(root, "seal")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := DeriveKey(root, "fs")
	if err != nil {
		t.Fatal(err)
	}
	if seal == fs {
		t.Fatal("distinct labels derived the same key")
	}
	seal2, _ := DeriveKey(root, "seal")
	if seal != seal2 {
		t.Fatal("DeriveKey not deterministic")
	}
}

func TestDigest(t *testing.T) {
	d := Sum([]byte("abc"))
	if d.IsZero() {
		t.Fatal("digest of data is zero")
	}
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not reported zero")
	}
	if d.String()[:7] != "sha256:" {
		t.Fatalf("digest string %q missing prefix", d.String())
	}
}

func TestPropSealOpenRoundTrip(t *testing.T) {
	box, _ := NewBox(testKey(11))
	f := func(pt, aad []byte) bool {
		sealed, err := box.Seal(pt, aad)
		if err != nil {
			return false
		}
		got, err := box.Open(sealed, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMACRejectsBitFlips(t *testing.T) {
	k := testKey(12)
	f := func(data []byte, idx uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		tag := MAC(k, data)
		mut := append([]byte(nil), data...)
		mut[int(idx)%len(mut)] ^= 1 << (bit % 8)
		if bytes.Equal(mut, data) {
			return true
		}
		return !VerifyMAC(k, mut, tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeal1KiB(b *testing.B) {
	box, _ := NewBox(testKey(1))
	pt := bytes.Repeat([]byte{0xAB}, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.Seal(pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHKDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := HKDF([]byte("ikm"), []byte("salt"), []byte("info"), 32); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSealAppendReusesBuffer(t *testing.T) {
	box, err := NewBox(testKey(9))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	sealed, err := box.SealAppend(buf, []byte("payload"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if &sealed[0] != &buf[:1][0] {
		t.Fatal("SealAppend reallocated despite sufficient capacity")
	}
	pt, err := box.Open(sealed, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "payload" {
		t.Fatalf("roundtrip = %q", pt)
	}
	// Appending after a prefix keeps the prefix intact.
	prefixed, err := box.SealAppend([]byte("hdr|"), []byte("p2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(prefixed[:4]) != "hdr|" {
		t.Fatal("prefix clobbered")
	}
	if _, err := box.Open(prefixed[4:], nil); err != nil {
		t.Fatal(err)
	}
}

func TestSealAppendWithCapacityAllocatesNothing(t *testing.T) {
	box, _ := NewBox(testKey(9))
	pt := bytes.Repeat([]byte{0xCD}, 1024)
	aad := []byte("aad")
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 0, len(pt)+box.Overhead())
	for name, seal := range map[string]func() ([]byte, error){
		"SealAppend":    func() ([]byte, error) { return box.SealAppend(buf, pt, aad) },
		"SealWithNonce": func() ([]byte, error) { return box.SealWithNonce(buf, nonce, pt, aad) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := seal(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s into a buffer with room allocated %.1f times per call, want 0", name, allocs)
		}
	}
}

func TestScratchPoolRoundtrip(t *testing.T) {
	buf := GetScratch()
	if len(*buf) != 0 {
		t.Fatalf("scratch not empty: %d", len(*buf))
	}
	*buf = append(*buf, []byte("transient")...)
	PutScratch(buf)
	again := GetScratch()
	if len(*again) != 0 {
		t.Fatalf("recycled scratch not reset: %d", len(*again))
	}
	PutScratch(again)
	PutScratch(nil) // must not panic, nor poison the pool
	PutScratch(GetScratch())
}

// TestSealWithNonceDeterministic: the caller's nonce is the sealed bytes'
// prefix, the same (nonce, plaintext, aad) seals to the same bytes, and
// the result opens like any other seal.
func TestSealWithNonceDeterministic(t *testing.T) {
	box, _ := NewBox(testKey(5))
	nonce := bytes.Repeat([]byte{0x42}, NonceSize)
	a, err := box.SealWithNonce(nil, nonce, []byte("chunk"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := box.SealWithNonce(nil, nonce, []byte("chunk"), []byte("aad"))
	if !bytes.Equal(a, b) || !bytes.Equal(a[:NonceSize], nonce) {
		t.Fatal("a derived-nonce seal is not a pure function of its inputs")
	}
	if pt, err := box.Open(a, []byte("aad")); err != nil || string(pt) != "chunk" {
		t.Fatalf("open = %q, %v", pt, err)
	}
	if _, err := box.SealWithNonce(nil, nonce[:NonceSize-1], []byte("chunk"), nil); err == nil {
		t.Fatal("short nonce accepted")
	}
}

// TestOpenAppendReusesBuffer: OpenAppend appends the plaintext after dst's
// bytes, into dst's storage when it has room (allocating nothing), leaves
// sealed untouched, and refuses a tampered message like Open.
func TestOpenAppendReusesBuffer(t *testing.T) {
	box, _ := NewBox(testKey(7))
	pt := bytes.Repeat([]byte{0xAB}, 1024)
	aad := []byte("aad")
	sealed, err := box.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), sealed...)
	buf := append(make([]byte, 0, 4+len(pt)), "hdr|"...)
	got, err := box.OpenAppend(buf, sealed, aad)
	if err != nil || string(got[:4]) != "hdr|" || !bytes.Equal(got[4:], pt) {
		t.Fatalf("OpenAppend = %q…, %v", got[:min(len(got), 8)], err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("OpenAppend reallocated despite sufficient capacity")
	}
	if !bytes.Equal(sealed, orig) {
		t.Fatal("OpenAppend modified the sealed message")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := box.OpenAppend(buf[:0], sealed, aad); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("OpenAppend into a buffer with room allocated %.1f times per call, want 0", allocs)
	}
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if _, err := box.OpenAppend(buf[:0], bad, aad); err != ErrAuth {
		t.Fatalf("tampered message opened: %v", err)
	}
}
