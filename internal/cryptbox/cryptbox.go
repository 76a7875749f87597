// Package cryptbox implements the cryptographic primitives shared across the
// SecureCloud stack: authenticated encryption (AES-128-GCM), key derivation
// (HKDF over HMAC-SHA256, RFC 5869), message authentication, and a small key
// hierarchy used by the enclave sealing and file-system shield layers.
//
// Everything is built on the Go standard library only. The package exposes
// value types with explicit key material rather than global state so that
// tests can inject fixed keys and the simulator stays deterministic.
package cryptbox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// KeySize is the symmetric key size in bytes (AES-128).
const KeySize = 16

// MACSize is the size of an HMAC-SHA256 tag in bytes.
const MACSize = sha256.Size

// NonceSize is the AES-GCM nonce size in bytes.
const NonceSize = 12

// ErrAuth is returned when decryption or MAC verification fails. The caller
// must treat the data as tampered with: in the SecureCloud threat model the
// cloud provider controls all storage and networking.
var ErrAuth = errors.New("cryptbox: authentication failed")

// Key is a 128-bit symmetric key.
type Key [KeySize]byte

// NewRandomKey draws a key from crypto/rand.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("cryptbox: reading randomness: %w", err)
	}
	return k, nil
}

// KeyFromBytes builds a key from exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("cryptbox: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// Box is an authenticated-encryption context bound to one key.
type Box struct {
	key  Key
	aead cipher.AEAD
}

// NewBox returns an AES-128-GCM box for the key.
func NewBox(key Key) (*Box, error) {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("cryptbox: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("cryptbox: %w", err)
	}
	return &Box{key: key, aead: aead}, nil
}

// Seal encrypts plaintext with the given additional authenticated data.
// The output layout is nonce || ciphertext+tag.
func (b *Box) Seal(plaintext, aad []byte) ([]byte, error) {
	return b.SealAppend(nil, plaintext, aad)
}

// SealAppend is Seal appending to dst (which may be nil, or a recycled
// buffer from GetScratch): the hot-path form that lets callers reuse
// sealing buffers instead of allocating one per message. dst is grown
// first and the nonce is read straight into its tail, so sealing into a
// buffer with enough spare capacity allocates nothing.
func (b *Box) SealAppend(dst, plaintext, aad []byte) ([]byte, error) {
	dst, nonce := b.grow(dst, len(plaintext))
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("cryptbox: reading nonce: %w", err)
	}
	return b.aead.Seal(dst, nonce, plaintext, aad), nil
}

// SealWithNonce is SealAppend under a nonce the caller derived instead of
// a random one: the deterministic seal behind convergent chunks and WAL
// records, whose bytes must be reproducible. The caller must guarantee
// that a (key, nonce) pair never seals two different (plaintext, aad)
// pairs — in practice, by deriving the nonce from both.
func (b *Box) SealWithNonce(dst, nonce, plaintext, aad []byte) ([]byte, error) {
	if len(nonce) != NonceSize {
		return nil, fmt.Errorf("cryptbox: nonce must be %d bytes, got %d", NonceSize, len(nonce))
	}
	dst, tail := b.grow(dst, len(plaintext))
	copy(tail, nonce)
	return b.aead.Seal(dst, tail, plaintext, aad), nil
}

// grow extends dst by a nonce-sized tail, returned as nonce, with room
// after it to seal a plaintext of n bytes without reallocating.
func (b *Box) grow(dst []byte, n int) (out, nonce []byte) {
	need := NonceSize + n + b.aead.Overhead()
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	l := len(dst)
	return dst[:l+NonceSize], dst[l : l+NonceSize]
}

// Open authenticates and decrypts data produced by Seal with the same AAD.
// The plaintext is a new buffer; sealed is left untouched.
func (b *Box) Open(sealed, aad []byte) ([]byte, error) { return b.OpenAppend(nil, sealed, aad) }

// OpenAppend is Open appending the plaintext to dst, the mirror of
// SealAppend: a caller that opens many messages in turn passes the same
// buffer back as dst[:0], and opening into a buffer with enough spare
// capacity allocates nothing. dst must not overlap sealed; sealed is left
// untouched.
func (b *Box) OpenAppend(dst, sealed, aad []byte) ([]byte, error) {
	return b.open(dst, sealed, aad, false)
}

// OpenInPlace is Open decrypting into sealed's own storage: the plaintext
// it returns aliases sealed[NonceSize:], so opening allocates nothing.
// Authentication is the same as Open's and a failure still returns ErrAuth,
// but sealed is overwritten either way. Use it only on a buffer the caller
// owns exclusively and will not read again as ciphertext.
func (b *Box) OpenInPlace(sealed, aad []byte) ([]byte, error) { return b.open(nil, sealed, aad, true) }

func (b *Box) open(dst, sealed, aad []byte, inPlace bool) ([]byte, error) {
	if len(sealed) < NonceSize+b.aead.Overhead() {
		return nil, ErrAuth
	}
	nonce, ct := sealed[:NonceSize], sealed[NonceSize:]
	if inPlace {
		dst = ct[:0]
	}
	pt, err := b.aead.Open(dst, nonce, ct, aad)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}

// Overhead returns the ciphertext expansion of Seal in bytes.
func (b *Box) Overhead() int { return NonceSize + b.aead.Overhead() }

// scratchPool recycles the short-lived buffers hot paths assemble
// plaintexts and sealed frames in. It holds pointers: a slice header put
// into a sync.Pool is boxed, one allocation per round.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetScratch returns a recycled buffer, empty, for transient encode/seal
// work. Append through *b and return b with PutScratch once nothing
// retains its bytes (sealed output handed to a queue must be copied or
// simply not pooled).
func GetScratch() *[]byte {
	b := scratchPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutScratch recycles a buffer obtained from GetScratch, keeping whatever
// capacity *b grew to. A nil b is ignored.
func PutScratch(b *[]byte) {
	if b != nil {
		scratchPool.Put(b)
	}
}

// NewMAC returns an HMAC-SHA256 hash keyed by key: MAC's hash, for a
// caller that reuses one across many messages (Reset between them).
func NewMAC(key Key) hash.Hash { return hmac.New(sha256.New, key[:]) }

// MAC computes HMAC-SHA256 over data with the key.
func MAC(key Key, data []byte) [MACSize]byte {
	m := NewMAC(key)
	m.Write(data)
	var out [MACSize]byte
	copy(out[:], m.Sum(nil))
	return out
}

// VerifyMAC reports whether tag authenticates data under key, in constant
// time.
func VerifyMAC(key Key, data []byte, tag [MACSize]byte) bool {
	want := MAC(key, data)
	return hmac.Equal(want[:], tag[:])
}

// hkdfExtract implements the RFC 5869 extract step.
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

// hkdfExpand implements the RFC 5869 expand step for up to 255 blocks.
func hkdfExpand(prk, info []byte, length int) ([]byte, error) {
	if length > 255*sha256.Size {
		return nil, fmt.Errorf("cryptbox: hkdf length %d too large", length)
	}
	var out, prev []byte
	for counter := byte(1); len(out) < length; counter++ {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write(info)
		m.Write([]byte{counter})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// HKDF derives length bytes from the input key material, salt and context
// info per RFC 5869 (HMAC-SHA256).
func HKDF(ikm, salt, info []byte, length int) ([]byte, error) {
	return hkdfExpand(hkdfExtract(salt, ikm), info, length)
}

// DeriveKey derives a labelled sub-key from a parent key. Labels partition
// the key space: the enclave sealing key, the FS protection keys and the
// stream keys of one container are all children of its root key under
// distinct labels.
func DeriveKey(parent Key, label string) (Key, error) {
	raw, err := HKDF(parent[:], nil, []byte(label), KeySize)
	if err != nil {
		return Key{}, err
	}
	return KeyFromBytes(raw)
}

// Digest is a SHA-256 content hash, used for image content addressing and
// enclave measurement.
type Digest [sha256.Size]byte

// Sum computes the SHA-256 digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// String renders the digest in hex, prefixed like a registry digest.
func (d Digest) String() string { return fmt.Sprintf("sha256:%x", d[:]) }

// IsZero reports whether the digest is all zeroes (unset).
func (d Digest) IsZero() bool { return d == Digest{} }
