// Package transfer implements SecureCloud's component for the "efficient
// transmission of large amounts of data" (paper §III-B(3)): bulk payloads
// — meter archives, model files, map/reduce inputs, container image layers
// — are cut into chunks, compressed, encrypted, and authenticated under a
// Merkle tree, so they can cross untrusted networks and storage out of
// order, resume after interruption, and be verified chunk-by-chunk without
// trusting the transport. Out-of-order transfer and resume live one level
// up, in the container engine's digest-verified chunk cache: a pull fetches
// chunks in any order into it, a retried pull fetches only what it lacks,
// and Unpack then reassembles from the cache in chunk-index order.
//
// The package is the chunk substrate of the content-addressed data plane:
// the registry and container layers store and move sealed chunks keyed by
// their content digest. Every chunk is sealed convergently
// (PackConvergent): under a key derived from its own
// compressed plaintext, with a deterministic nonce, and the per-chunk keys
// ride in the manifest. Identical content always produces identical sealed
// bytes, so a content-addressed store deduplicates chunks across payloads.
// Confidentiality-wise this is exactly convergent encryption: a store that
// holds only chunks cannot read content it does not already know, and
// nothing more — whoever holds the manifest holds the keys. The image
// registry stores manifests next to chunks (it ingests plaintext layers on
// push anyway); there, secret content is protected one level down by
// fsshield, per the paper's model, and convergent sealing is purely the
// dedup mechanism. Position binding comes from the manifest's leaf list,
// not the AAD. PackConvergentMemo packs the successor of an earlier
// payload, deflating and sealing only the chunks whose plaintext changed.
//
// Unpack is the one reassembly path. It hands every chunk's plaintext to a
// writer in chunk-index order, and a caller that charges the simulated SGX
// memory hierarchy (the container engine's verification enclave) does so in
// its fetch callback and its writer.
package transfer

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"securecloud/internal/codec"
	"securecloud/internal/cryptbox"
)

// DefaultChunkSize balances per-chunk overhead against retransmission
// granularity.
const DefaultChunkSize = 256 << 10

// maxInflate bounds a single chunk's decompressed size against zip bombs.
const maxInflate = 64 << 20

// Errors reported by the transfer layer.
var (
	ErrBadChunk = errors.New("transfer: chunk failed verification")
	ErrManifest = errors.New("transfer: manifest inconsistent")
)

// Manifest describes one packed payload: the trusted summary exchanged
// over a small authenticated channel (e.g. inside an SCF, a micro-service
// request, or a signed image manifest), while the bulk chunks travel any
// untrusted way. It crosses the wire in its binary form (AppendBinary,
// DecodeManifest).
type Manifest struct {
	Name      string
	Size      int64
	ChunkSize int
	Leaves    []cryptbox.Digest
	Root      cryptbox.Digest
	// Keys holds one convergent key per leaf: Keys[i] opens chunk i.
	// Whoever holds the manifest can decrypt — by design: the manifest is
	// the trusted summary, the chunk store is not.
	Keys []cryptbox.Key
}

// Chunks returns the number of chunks.
func (m *Manifest) Chunks() int { return len(m.Leaves) }

// Validate checks the manifest's internal consistency: the root over the
// leaves, one key per leaf, and — mirroring the scbr codec's forged-count
// fix — that the leaf count is exactly what the declared geometry implies,
// so a forged manifest cannot demand absurd chunk counts or smuggle extra
// leaves. ChunkSize is capped at maxInflate, which (with the per-chunk
// plaintext bound enforced on open) keeps a forged Size from driving
// unbounded allocations.
func (m *Manifest) Validate() error {
	if m.ChunkSize <= 0 || m.ChunkSize > maxInflate || m.Size < 0 {
		return fmt.Errorf("%w: bad geometry", ErrManifest)
	}
	want := int((m.Size + int64(m.ChunkSize) - 1) / int64(m.ChunkSize))
	if want == 0 {
		want = 1
	}
	if len(m.Leaves) != want {
		return fmt.Errorf("%w: %d leaves for %d bytes at chunk size %d (want %d)",
			ErrManifest, len(m.Leaves), m.Size, m.ChunkSize, want)
	}
	if len(m.Keys) != len(m.Leaves) {
		return fmt.Errorf("%w: %d keys for %d leaves", ErrManifest, len(m.Keys), len(m.Leaves))
	}
	if MerkleRoot(m.Leaves) != m.Root {
		return fmt.Errorf("%w: root does not match leaves", ErrManifest)
	}
	return nil
}

// entryBytes is the encoded size of one chunk's manifest entry: its leaf
// and its key.
const entryBytes = len(cryptbox.Digest{}) + cryptbox.KeySize

// AppendBinary appends the manifest's binary encoding to b:
//
//	uvarint name length, name, u64 size, u32 chunk size, root,
//	u32 leaf count n, n leaves, n keys.
//
// Leaves and keys share the one count, so only a manifest with one key
// per leaf encodes to bytes that decode. A ChunkSize that Validate accepts
// fits the u32.
func (m *Manifest) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Name)))
	b = append(b, m.Name...)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Size))
	b = binary.BigEndian.AppendUint32(b, uint32(m.ChunkSize))
	b = append(b, m.Root[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Leaves)))
	b = slices.Grow(b, len(m.Leaves)*entryBytes)
	for _, l := range m.Leaves {
		b = append(b, l[:]...)
	}
	for _, k := range m.Keys {
		b = append(b, k[:]...)
	}
	return b
}

// ReadManifest decodes one binary manifest (AppendBinary's encoding) from
// the front of r and validates it, returning the reader advanced past it:
// the decoder a format embedding a manifest reads it with. The leaf count
// is checked against the bytes that remain before the leaves and keys are
// allocated, so a forged count cannot size an allocation. Every error
// wraps ErrManifest.
func ReadManifest(r codec.Reader) (*Manifest, codec.Reader, error) {
	var (
		n           uint64
		name, root  []byte
		size        uint64
		chunk, nl   uint32
		entries     []byte
		leaves, end int
	)
	n, r = r.Uvarint()
	name, r = r.Bytes(int(n))
	size, r = r.U64()
	chunk, r = r.U32()
	root, r = r.Bytes(len(cryptbox.Digest{}))
	nl, r = r.U32()
	leaves, r = r.Count(uint64(nl), entryBytes)
	m := &Manifest{
		Name: string(name), Size: int64(size), ChunkSize: int(chunk),
		Leaves: make([]cryptbox.Digest, leaves), Keys: make([]cryptbox.Key, leaves),
	}
	entries, r = r.Bytes(leaves * entryBytes)
	if err := r.Err(); err != nil {
		return nil, r, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	copy(m.Root[:], root)
	for i := range m.Leaves {
		end += copy(m.Leaves[i][:], entries[end:])
	}
	for i := range m.Keys {
		end += copy(m.Keys[i][:], entries[end:])
	}
	if err := m.Validate(); err != nil {
		return nil, r, err
	}
	return m, r, nil
}

// DecodeManifest decodes and validates a manifest that is the whole of b.
// Use it on any manifest crossing a trust boundary: a manifest that fails
// validation is rejected before a single chunk allocation happens.
func DecodeManifest(b []byte) (*Manifest, error) {
	m, r, err := ReadManifest(codec.NewReader(b))
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	return m, nil
}

// convergentAAD is position-independent: convergent chunks must depend on
// nothing but their content (dedup), so position binding is delegated to
// the manifest leaf list, which Unpack enforces.
var convergentAAD = []byte("transfer|convergent")

// convergentSeal seals one compressed chunk under a key derived from its
// own bytes with a deterministic nonce: same content, same sealed bytes.
// Reusing a (key, nonce) pair is safe exactly because it can only recur
// for the identical plaintext, reproducing the identical ciphertext.
func convergentSeal(plaintext []byte) (cryptbox.Key, []byte, error) {
	d := cryptbox.Sum(plaintext)
	raw, err := cryptbox.HKDF(d[:], nil, []byte("transfer-convergent-key"), cryptbox.KeySize)
	if err != nil {
		return cryptbox.Key{}, nil, err
	}
	key, err := cryptbox.KeyFromBytes(raw)
	if err != nil {
		return cryptbox.Key{}, nil, err
	}
	nonce := cryptbox.Sum(append(d[:], []byte("transfer-convergent-nonce")...))
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return cryptbox.Key{}, nil, err
	}
	sealed, err := box.SealWithNonce(nil, nonce[:cryptbox.NonceSize], plaintext, convergentAAD)
	if err != nil {
		return cryptbox.Key{}, nil, err
	}
	return key, sealed, nil
}

// ChunkMemo remembers what convergent packing made of each chunk plaintext,
// keyed by the plaintext's digest. Deflate and convergent sealing are pure
// functions of the plaintext, so a remembered entry is exactly what
// re-sealing would produce again.
type ChunkMemo map[cryptbox.Digest]memoEntry

// memoEntry is one chunk's convergent key, its leaf (the digest of its
// sealed bytes) and its sealed length.
type memoEntry struct {
	key  cryptbox.Key
	leaf cryptbox.Digest
	size int
}

// MemoPack is one PackConvergentMemo result.
type MemoPack struct {
	// Manifest is identical to PackConvergent's on the same payload.
	Manifest *Manifest
	// Chunks holds the sealed chunks in index order, nil where the memo
	// held the chunk's plaintext: those chunks were neither deflated nor
	// sealed, and are sent to the store as references to blobs it holds
	// (registry.PutBlobSet).
	Chunks [][]byte
	// SealedBytes sums every chunk's sealed length, memo hits included.
	SealedBytes int64
	// Memo covers exactly this payload's chunks: the memo to pack the
	// payload's successor with, once the store holds this pack.
	Memo ChunkMemo
}

// PackConvergentMemo is PackConvergent for a payload whose predecessor was
// packed with memo prev (nil: none): chunks whose plaintext prev holds are
// not deflated or sealed again. Only pass a memo whose chunks the store
// still holds.
func PackConvergentMemo(name string, data []byte, chunkSize int, prev ChunkMemo) (*MemoPack, error) {
	pass := &memoPass{prev: prev, next: make(ChunkMemo, len(prev))}
	m, chunks, err := pack(name, data, chunkSize, pass)
	if err != nil {
		return nil, err
	}
	return &MemoPack{Manifest: m, Chunks: chunks, SealedBytes: pass.sealedBytes, Memo: pass.next}, nil
}

// memoPass is one memoised pack in progress: prev answers lookups, next
// records every chunk of this payload.
type memoPass struct {
	prev, next  ChunkMemo
	sealedBytes int64
}

func (p *memoPass) record(plain cryptbox.Digest, e memoEntry) {
	p.next[plain] = e
	p.sealedBytes += int64(e.size)
}

// packChunk deflates (into zbuf) and seals one chunk — unless memo holds
// its plaintext, in which case it returns the remembered key and leaf and
// nil sealed bytes.
func packChunk(plain []byte, memo *memoPass, zbuf *bytes.Buffer) (cryptbox.Key, cryptbox.Digest, []byte, error) {
	var pd cryptbox.Digest
	if memo != nil {
		pd = cryptbox.Sum(plain)
		if e, ok := memo.prev[pd]; ok {
			memo.record(pd, e)
			return e.key, e.leaf, nil, nil
		}
	}
	compressed, err := deflate(zbuf, plain)
	if err != nil {
		return cryptbox.Key{}, cryptbox.Digest{}, nil, err
	}
	key, sealed, err := convergentSeal(compressed)
	if err != nil {
		return cryptbox.Key{}, cryptbox.Digest{}, nil, err
	}
	leaf := cryptbox.Sum(sealed)
	if memo != nil {
		memo.record(pd, memoEntry{key: key, leaf: leaf, size: len(sealed)})
	}
	return key, leaf, sealed, nil
}

// pack is the one chunking loop behind every pack: cut data into
// chunkSize pieces, seal each (packChunk), and build the manifest. An empty
// payload is one empty chunk; a payload that is an exact multiple of
// chunkSize has no trailing empty chunk.
func pack(name string, data []byte, chunkSize int, memo *memoPass) (*Manifest, [][]byte, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > maxInflate {
		return nil, nil, fmt.Errorf("%w: chunk size %d exceeds %d", ErrManifest, chunkSize, maxInflate)
	}
	n := max(1, (len(data)+chunkSize-1)/chunkSize)
	m := &Manifest{
		Name: name, Size: int64(len(data)), ChunkSize: chunkSize,
		Leaves: make([]cryptbox.Digest, 0, n), Keys: make([]cryptbox.Key, 0, n),
	}
	chunks := make([][]byte, 0, n)
	// zbuf holds one chunk's deflate output until it is sealed. One buffer
	// serves the whole pack: a fresh one per chunk would be garbage the size
	// of a sealed chunk, interleaved in the heap with the sealed chunks a
	// caller keeps, and the holes it leaves fragment the heap.
	var zbuf bytes.Buffer
	for i := 0; i < n; i++ {
		piece := data[i*chunkSize : min((i+1)*chunkSize, len(data))]
		key, leaf, sealed, err := packChunk(piece, memo, &zbuf)
		if err != nil {
			return nil, nil, err
		}
		m.Keys = append(m.Keys, key)
		m.Leaves = append(m.Leaves, leaf)
		chunks = append(chunks, sealed)
	}
	m.Root = MerkleRoot(m.Leaves)
	return m, chunks, nil
}

// PackConvergent compresses, seals and hashes data into transferable
// chunks plus the manifest the receiver needs (see the package comment):
// the chunk bytes depend only on the content, enabling cross-payload dedup
// in a content-addressed store, and the per-chunk keys ride in the manifest.
func PackConvergent(name string, data []byte, chunkSize int) (*Manifest, [][]byte, error) {
	return pack(name, data, chunkSize, nil)
}

// Unpack streams the verified payload into w in chunk-index order, fetching
// each sealed chunk on demand. Every chunk is checked against the manifest
// leaf before decryption; any mismatch aborts with ErrBadChunk naming the
// index. key is unused: every chunk opens under its manifest key. Each
// chunk opens into one buffer and decompresses into another, both reused
// across chunks, so w must not keep the slice it is given (io.Writer's
// contract). The open cannot decrypt in place: fetch may hand out a chunk
// it keeps, such as a cached one.
func Unpack(m *Manifest, _ cryptbox.Key, w io.Writer, fetch func(idx int) ([]byte, error)) error {
	if err := m.Validate(); err != nil {
		return err
	}
	var (
		total             int64
		compressed, plain []byte
	)
	for i := 0; i < m.Chunks(); i++ {
		sealed, err := fetch(i)
		if err != nil {
			return fmt.Errorf("transfer: fetching chunk %d: %w", i, err)
		}
		if cryptbox.Sum(sealed) != m.Leaves[i] {
			return fmt.Errorf("%w: leaf digest mismatch at %d", ErrBadChunk, i)
		}
		box, err := cryptbox.NewBox(m.Keys[i])
		if err != nil {
			return err
		}
		compressed, err = box.OpenAppend(compressed[:0], sealed, convergentAAD)
		if err != nil {
			return fmt.Errorf("%w: decrypting %d", ErrBadChunk, i)
		}
		if plain, err = inflate(plain, compressed, m.ChunkSize); err != nil {
			return fmt.Errorf("transfer: inflating chunk %d: %w", i, err)
		}
		if _, err := w.Write(plain); err != nil {
			return err
		}
		total += int64(len(plain))
	}
	if total != m.Size {
		return fmt.Errorf("%w: assembled %d bytes, manifest says %d", ErrManifest, total, m.Size)
	}
	return nil
}

// deflaterPool and inflaterPool recycle the compressor state machines —
// a flate.Writer is ~600 KiB of window and hash tables, far too heavy to
// allocate per chunk on the data-plane hot path.
var deflaterPool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic("transfer: flate.NewWriter(BestSpeed) cannot fail: " + err.Error())
	}
	return w
}}

var inflaterPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// deflate compresses data into buf, which it resets first; the result
// aliases buf.
func deflate(buf *bytes.Buffer, data []byte) ([]byte, error) {
	w := deflaterPool.Get().(*flate.Writer)
	defer deflaterPool.Put(w)
	buf.Reset()
	buf.Grow(len(data)/2 + 64)
	w.Reset(buf)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflate decompresses one chunk into dst's storage, which it overwrites,
// rejecting output beyond limit (a chunk's plaintext can never legitimately
// exceed the manifest's ChunkSize, so anything larger is forged — erroring
// beats silent truncation, which would surface as a confusing
// manifest-inconsistency later). The buffer grows only as real bytes
// decompress, so a forged chunk cannot reserve more than it delivers.
func inflate(dst, data []byte, limit int) ([]byte, error) {
	r := inflaterPool.Get().(io.ReadCloser)
	defer inflaterPool.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(dst[:0])
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(limit)+1)); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	if len(out) > limit {
		return nil, fmt.Errorf("%w: chunk inflates past %d bytes", ErrBadChunk, limit)
	}
	return out, r.Close()
}
