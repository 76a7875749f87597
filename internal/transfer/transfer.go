// Package transfer implements SecureCloud's component for the "efficient
// transmission of large amounts of data" (paper §III-B(3)): bulk payloads
// — meter archives, model files, map/reduce inputs, container image layers
// — are cut into chunks, compressed, encrypted, and authenticated under a
// Merkle tree, so they can cross untrusted networks and storage out of
// order, resume after interruption, and be verified chunk-by-chunk without
// trusting the transport.
//
// The package is the chunk substrate of the content-addressed data plane:
// the registry and container layers store and move sealed chunks keyed by
// their content digest. Two sealing modes exist:
//
//   - Keyed (Pack/PackStream): every chunk is sealed under one caller key
//     with a position-binding AAD. Use for point-to-point transfers where
//     both ends share a key.
//   - Convergent (PackConvergent/PackConvergentStream): every chunk is
//     sealed under a key derived from its own compressed plaintext with a
//     deterministic nonce, and the per-chunk keys ride in the manifest.
//     Identical content always produces identical sealed bytes, so a
//     content-addressed store deduplicates chunks across payloads.
//     Confidentiality-wise this is exactly convergent encryption: a store
//     that holds only chunks cannot read content it does not already
//     know, and nothing more — whoever holds the manifest holds the keys.
//     The image registry stores manifests next to chunks (it ingests
//     plaintext layers on push anyway); there, secret content is
//     protected one level down by fsshield, per the paper's model, and
//     convergent sealing is purely the dedup mechanism. Position binding
//     comes from the manifest's leaf list, not the AAD. PackConvergentMemo
//     packs the successor of an earlier payload, deflating and sealing only
//     the chunks whose plaintext changed.
//
// Reassembly can be routed through the simulated SGX memory hierarchy via
// Receiver.WithAccounting, mirroring fsshield and kvstore: the enclave-side
// staging, verification and decompressed output of every chunk are charged
// to an enclave.Memory in chunk-index order, so totals are deterministic
// regardless of chunk arrival order or host parallelism.
package transfer

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// DefaultChunkSize balances per-chunk overhead against retransmission
// granularity.
const DefaultChunkSize = 256 << 10

// maxInflate bounds a single chunk's decompressed size against zip bombs.
const maxInflate = 64 << 20

// Errors reported by the transfer layer.
var (
	ErrBadChunk   = errors.New("transfer: chunk failed verification")
	ErrIncomplete = errors.New("transfer: chunks missing")
	ErrManifest   = errors.New("transfer: manifest inconsistent")
)

// Manifest describes one packed payload: the trusted summary exchanged
// over a small authenticated channel (e.g. inside an SCF, a micro-service
// request, or a signed image manifest), while the bulk chunks travel any
// untrusted way.
type Manifest struct {
	Name      string            `json:"name"`
	Size      int64             `json:"size"`
	ChunkSize int               `json:"chunk_size"`
	Leaves    []cryptbox.Digest `json:"leaves"`
	Root      cryptbox.Digest   `json:"root"`
	// Keys holds the per-chunk convergent keys (PackConvergent). Empty for
	// keyed payloads. Whoever holds the manifest can decrypt — by design:
	// the manifest is the trusted summary, the chunk store is not.
	Keys []cryptbox.Key `json:"keys,omitempty"`
}

// Chunks returns the number of chunks.
func (m *Manifest) Chunks() int { return len(m.Leaves) }

// Convergent reports whether the payload was packed convergently.
func (m *Manifest) Convergent() bool { return len(m.Keys) > 0 }

// Validate checks the manifest's internal consistency: the root over the
// leaves, and — mirroring the scbr codec's forged-count fix — that the leaf
// count is exactly what the declared geometry implies, so a forged manifest
// cannot demand absurd chunk counts or smuggle extra leaves. ChunkSize is
// capped at maxInflate, which (with the per-chunk plaintext bound enforced
// on open) keeps a forged Size from driving unbounded allocations.
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
	if len(m.Keys) != 0 && len(m.Keys) != len(m.Leaves) {
		return fmt.Errorf("%w: %d keys for %d leaves", ErrManifest, len(m.Keys), len(m.Leaves))
	}
	if MerkleRoot(m.Leaves) != m.Root {
		return fmt.Errorf("%w: root does not match leaves", ErrManifest)
	}
	return nil
}

// DecodeManifest parses and validates a serialized manifest. Use it on any
// manifest crossing a trust boundary: a manifest that fails validation is
// rejected before a single chunk allocation happens.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// chunkAAD binds a keyed ciphertext chunk to the payload and position.
func chunkAAD(name string, idx int) []byte {
	return []byte(fmt.Sprintf("transfer|%s|%d", name, idx))
}

// convergentAAD is position-independent: convergent chunks must depend on
// nothing but their content (dedup), so position binding is delegated to
// the manifest leaf list, which Accept and Unpack enforce.
var convergentAAD = []byte("transfer|convergent")

// convergentSeal seals one plaintext (a compressed chunk, or a raw
// SealConvergent payload) under a key derived from its own bytes with a
// deterministic nonce: same content, same sealed bytes. Reusing a (key,
// nonce) pair is safe exactly because it can only recur for the identical
// plaintext, reproducing the identical ciphertext.
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
	box.SetNonceSource(bytes.NewReader(nonce[:cryptbox.NonceSize]))
	sealed, err := box.Seal(plaintext, convergentAAD)
	if err != nil {
		return cryptbox.Key{}, nil, err
	}
	return key, sealed, nil
}

// SealConvergent convergently seals one standalone payload as is: the
// returned key is derived from the payload and the nonce is deterministic,
// so identical payloads produce bit-identical sealed bytes (the dedup
// property PackConvergent gives chunked payloads, exposed here for
// single-record callers like the kvstore write-ahead log). Unlike a chunk it
// is not deflated first: on records of a few KiB, deflate's per-block
// Huffman tables cost about as many bytes as they save (the log's records
// came out larger deflated than raw), while building them dominated the
// append. The caller is responsible for carrying the key over an
// authenticated channel and for position binding.
func SealConvergent(payload []byte) (cryptbox.Key, []byte, error) {
	return convergentSeal(payload)
}

// OpenConvergent reverses SealConvergent, refusing a payload longer than
// limit bytes (≤ 0: no bound beyond the sealed length itself).
func OpenConvergent(key cryptbox.Key, sealed []byte, limit int) ([]byte, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	payload, err := box.Open(sealed, convergentAAD)
	if err != nil {
		return nil, fmt.Errorf("%w: convergent payload failed authentication", ErrBadChunk)
	}
	if limit > 0 && len(payload) > limit {
		return nil, fmt.Errorf("%w: convergent payload of %d bytes exceeds %d", ErrBadChunk, len(payload), limit)
	}
	return payload, nil
}

// ChunkFunc consumes sealed chunks in index order during a streaming pack.
type ChunkFunc func(idx int, sealed []byte) error

// PackStream reads the payload from r in chunkSize pieces, compressing,
// sealing under key and emitting each chunk in index order, and returns
// the manifest. Only one chunk's plaintext is resident at a time, so
// payloads larger than memory stream through.
func PackStream(name string, r io.Reader, key cryptbox.Key, chunkSize int, emit ChunkFunc) (*Manifest, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	return packStream(name, r, chunkSize, false, func(idx int, compressed []byte) (cryptbox.Key, []byte, error) {
		sealed, err := box.Seal(compressed, chunkAAD(name, idx))
		return cryptbox.Key{}, sealed, err
	}, nil, emit)
}

// PackConvergentStream is PackStream with convergent sealing: the manifest
// carries one derived key per chunk, and identical chunk content yields
// bit-identical sealed chunks for content-addressed dedup.
func PackConvergentStream(name string, r io.Reader, chunkSize int, emit ChunkFunc) (*Manifest, error) {
	return packStream(name, r, chunkSize, true, sealConvergentChunk, nil, emit)
}

// sealFunc seals chunk idx's compressed bytes, returning the convergent key
// (zero in keyed mode) and the sealed bytes.
type sealFunc func(idx int, compressed []byte) (cryptbox.Key, []byte, error)

func sealConvergentChunk(_ int, compressed []byte) (cryptbox.Key, []byte, error) {
	return convergentSeal(compressed)
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
	m, chunks, err := collect(func(emit ChunkFunc) (*Manifest, error) {
		return packStream(name, bytes.NewReader(data), chunkSize, true, sealConvergentChunk, pass, emit)
	})
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

// packChunk deflates and seals one chunk — unless memo holds its plaintext,
// in which case it returns the remembered key and leaf and nil sealed bytes.
func packChunk(idx int, plain []byte, seal sealFunc, memo *memoPass) (cryptbox.Key, cryptbox.Digest, []byte, error) {
	var pd cryptbox.Digest
	if memo != nil {
		pd = cryptbox.Sum(plain)
		if e, ok := memo.prev[pd]; ok {
			memo.record(pd, e)
			return e.key, e.leaf, nil, nil
		}
	}
	compressed, err := deflate(plain)
	if err != nil {
		return cryptbox.Key{}, cryptbox.Digest{}, nil, err
	}
	key, sealed, err := seal(idx, compressed)
	if err != nil {
		return cryptbox.Key{}, cryptbox.Digest{}, nil, err
	}
	leaf := cryptbox.Sum(sealed)
	if memo != nil {
		memo.record(pd, memoEntry{key: key, leaf: leaf, size: len(sealed)})
	}
	return key, leaf, sealed, nil
}

// packStream is the one chunking loop behind every pack: read chunkSize
// pieces, seal each (packChunk), and build the manifest.
func packStream(name string, r io.Reader, chunkSize int, convergent bool,
	seal sealFunc, memo *memoPass, emit ChunkFunc) (*Manifest, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > maxInflate {
		return nil, fmt.Errorf("%w: chunk size %d exceeds %d", ErrManifest, chunkSize, maxInflate)
	}
	m := &Manifest{Name: name, ChunkSize: chunkSize}
	buf := make([]byte, chunkSize)
	for idx := 0; ; idx++ {
		n, err := io.ReadFull(r, buf)
		if err == io.EOF && idx > 0 {
			break
		}
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("transfer: reading payload: %w", err)
		}
		key, leaf, sealed, serr := packChunk(idx, buf[:n], seal, memo)
		if serr != nil {
			return nil, serr
		}
		if convergent {
			m.Keys = append(m.Keys, key)
		}
		m.Size += int64(n)
		m.Leaves = append(m.Leaves, leaf)
		if emit != nil {
			if err := emit(idx, sealed); err != nil {
				return nil, err
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
	}
	m.Root = MerkleRoot(m.Leaves)
	return m, nil
}

// Pack compresses, encrypts and hashes data into transferable chunks plus
// the manifest the receiver needs.
func Pack(name string, data []byte, key cryptbox.Key, chunkSize int) (*Manifest, [][]byte, error) {
	return collect(func(emit ChunkFunc) (*Manifest, error) {
		return PackStream(name, bytes.NewReader(data), key, chunkSize, emit)
	})
}

// PackConvergent is Pack with convergent sealing (see the package comment):
// the chunk bytes depend only on the content, enabling cross-payload dedup
// in a content-addressed store, and the per-chunk keys ride in the manifest.
func PackConvergent(name string, data []byte, chunkSize int) (*Manifest, [][]byte, error) {
	return collect(func(emit ChunkFunc) (*Manifest, error) {
		return PackConvergentStream(name, bytes.NewReader(data), chunkSize, emit)
	})
}

func collect(pack func(ChunkFunc) (*Manifest, error)) (*Manifest, [][]byte, error) {
	var chunks [][]byte
	m, err := pack(func(_ int, sealed []byte) error {
		chunks = append(chunks, sealed)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return m, chunks, nil
}

// Accounting wires reassembly to the simulated SGX memory hierarchy, like
// fsshield and kvstore: a zero Accounting leaves the receiver unaccounted.
type Accounting = enclave.Accounting

// Unpack streams the verified payload into w in chunk-index order, fetching
// each sealed chunk on demand. Every chunk is checked against the manifest
// leaf before decryption; any mismatch aborts with ErrBadChunk naming the
// index. key is ignored for convergent manifests.
func Unpack(m *Manifest, key cryptbox.Key, w io.Writer, fetch func(idx int) ([]byte, error)) error {
	if err := m.Validate(); err != nil {
		return err
	}
	op, err := newOpener(m, key)
	if err != nil {
		return err
	}
	var total int64
	for i := 0; i < m.Chunks(); i++ {
		sealed, err := fetch(i)
		if err != nil {
			return fmt.Errorf("transfer: fetching chunk %d: %w", i, err)
		}
		plain, err := op.open(i, sealed)
		if err != nil {
			return err
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

// opener verifies, decrypts and decompresses single chunks for one
// manifest, resolving the keyed-vs-convergent mode once.
type opener struct {
	m   *Manifest
	box *cryptbox.Box // keyed mode only
}

func newOpener(m *Manifest, key cryptbox.Key) (*opener, error) {
	op := &opener{m: m}
	if !m.Convergent() {
		box, err := cryptbox.NewBox(key)
		if err != nil {
			return nil, err
		}
		op.box = box
	}
	return op, nil
}

func (op *opener) open(idx int, sealed []byte) ([]byte, error) {
	if cryptbox.Sum(sealed) != op.m.Leaves[idx] {
		return nil, fmt.Errorf("%w: leaf digest mismatch at %d", ErrBadChunk, idx)
	}
	var compressed []byte
	var err error
	if op.m.Convergent() {
		box, berr := cryptbox.NewBox(op.m.Keys[idx])
		if berr != nil {
			return nil, berr
		}
		compressed, err = box.Open(sealed, convergentAAD)
	} else {
		compressed, err = op.box.Open(sealed, chunkAAD(op.m.Name, idx))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting %d", ErrBadChunk, idx)
	}
	plain, err := inflate(compressed, op.m.ChunkSize)
	if err != nil {
		return nil, fmt.Errorf("transfer: inflating chunk %d: %w", idx, err)
	}
	return plain, nil
}

// Receiver reassembles a payload from chunks arriving in any order,
// verifying each against the manifest on arrival.
type Receiver struct {
	manifest *Manifest
	key      cryptbox.Key
	got      map[int][]byte
	acct     Accounting
}

// NewReceiver builds a receiver for a validated manifest. For convergent
// manifests the key is ignored (pass the zero key).
func NewReceiver(m *Manifest, key cryptbox.Key) (*Receiver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Receiver{manifest: m, key: key, got: make(map[int][]byte)}, nil
}

// WithAccounting routes this receiver's reassembly through the simulated
// memory hierarchy: Assemble charges each chunk's staged ciphertext (write
// + verify read) and decompressed output in chunk-index order, so cycle
// and fault totals are a pure function of the payload — independent of the
// order chunks arrived in. Call before Assemble.
func (r *Receiver) WithAccounting(acct Accounting) *Receiver {
	r.acct = acct
	return r
}

// Accept verifies and stores one chunk. Duplicate deliveries of the same
// valid chunk are idempotent.
func (r *Receiver) Accept(idx int, chunk []byte) error {
	if idx < 0 || idx >= r.manifest.Chunks() {
		return fmt.Errorf("%w: index %d of %d", ErrBadChunk, idx, r.manifest.Chunks())
	}
	if cryptbox.Sum(chunk) != r.manifest.Leaves[idx] {
		return fmt.Errorf("%w: leaf digest mismatch at %d", ErrBadChunk, idx)
	}
	r.got[idx] = append([]byte(nil), chunk...)
	return nil
}

// Missing lists the chunk indexes still outstanding, ascending — the
// resume request after an interrupted transfer.
func (r *Receiver) Missing() []int {
	var out []int
	for i := 0; i < r.manifest.Chunks(); i++ {
		if _, ok := r.got[i]; !ok {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Complete reports whether all chunks arrived.
func (r *Receiver) Complete() bool { return len(r.got) == r.manifest.Chunks() }

// Assemble decrypts, decompresses and concatenates the payload.
func (r *Receiver) Assemble() ([]byte, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("%w: %d of %d", ErrIncomplete, len(r.got), r.manifest.Chunks())
	}
	op, err := newOpener(r.manifest, r.key)
	if err != nil {
		return nil, err
	}
	var outAddr uint64
	accounted := r.acct.Enabled()
	if accounted {
		outSize := int(r.manifest.Size)
		if outSize == 0 {
			outSize = 1
		}
		outAddr = r.acct.Arena.Alloc(outSize)
	}
	// Cap the upfront reservation: a forged Size must not reserve memory
	// the (digest-verified) chunks never deliver; growth beyond the cap is
	// paid only as real data decompresses.
	prealloc := r.manifest.Size
	if prealloc > 16<<20 {
		prealloc = 16 << 20
	}
	out := make([]byte, 0, prealloc)
	for i := 0; i < r.manifest.Chunks(); i++ {
		stored := r.got[i]
		if accounted {
			// Stage the ciphertext into the enclave, then read it back for
			// verification and decryption.
			addr := r.acct.Arena.Alloc(len(stored))
			r.acct.Mem.AccessRange(addr, len(stored), true)
			r.acct.Mem.AccessRange(addr, len(stored), false)
		}
		plain, err := op.open(i, stored)
		if err != nil {
			return nil, err
		}
		if accounted && len(plain) > 0 {
			r.acct.Mem.AccessRange(outAddr+uint64(len(out)), len(plain), true)
		}
		out = append(out, plain...)
	}
	if int64(len(out)) != r.manifest.Size {
		return nil, fmt.Errorf("%w: assembled %d bytes, manifest says %d",
			ErrManifest, len(out), r.manifest.Size)
	}
	return out, nil
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

func deflate(data []byte) ([]byte, error) {
	w := deflaterPool.Get().(*flate.Writer)
	defer deflaterPool.Put(w)
	var buf bytes.Buffer
	buf.Grow(len(data)/2 + 64)
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflate decompresses one chunk, rejecting output beyond limit (a chunk's
// plaintext can never legitimately exceed the manifest's ChunkSize, so
// anything larger is forged — erroring beats silent truncation, which
// would surface as a confusing manifest-inconsistency later).
func inflate(data []byte, limit int) ([]byte, error) {
	r := inflaterPool.Get().(io.ReadCloser)
	defer inflaterPool.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err != nil {
		return nil, err
	}
	if len(out) > limit {
		return nil, fmt.Errorf("%w: chunk inflates past %d bytes", ErrBadChunk, limit)
	}
	return out, r.Close()
}
