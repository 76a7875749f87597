// The per-shard sealed write-ahead log. A WAL is the durable half of a
// shard: PutBatch appends one group-commit record per tick, and the byte
// buffer — not the in-memory table — is what survives a crash. A record
// is one deterministic AEAD seal under the shard's WAL key, the same seal
// the snapshot chain record uses:
//
//	frame = u32 len | sealDeterministic(walKey, encodeWALOps(batch), walAAD(name, epoch, seq))
//
// The seal gives confidentiality and integrity, and its AAD binds the
// record to its position: a record authenticated at (log, epoch, seq)
// cannot be replayed at any other position, reordered, or transplanted
// to another shard's log. The nonce is a MAC of the plaintext and the AAD
// under the WAL key, so identical appends at identical positions produce
// bit-identical log bytes. The ops are sealed raw: a group-commit record
// is a few KiB of keys and values, on which deflate saved no bytes while
// building its Huffman tables dominated an append's CPU.
//
// Torn-tail discipline (the crash contract): a record that is incomplete —
// truncated framing, or a full final frame that fails authentication — is
// a clean crash point; recovery truncates it and continues. The same
// damage anywhere before the final record cannot be explained by a crash
// during a sequential append and is a hard integrity error.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"sync"

	"securecloud/internal/codec"
	"securecloud/internal/cryptbox"
)

// WAL errors.
var (
	// ErrWALTorn marks a truncated final record, or a final record that
	// fails authentication — the clean crash point. Recovery truncates at
	// the last good record and continues.
	ErrWALTorn = errors.New("kvstore: wal torn tail")
	// ErrWALCorrupt marks damage that a crash cannot explain: a record that
	// fails authentication with records after it, or an authenticated
	// record whose payload does not decode. Recovery must fail loudly.
	ErrWALCorrupt = errors.New("kvstore: wal corrupt")
)

// WALOp is one logged put. In a batch decoded from the log (DecodeWAL,
// DecodeWALRecord, RecoverWAL) a non-empty Value aliases the record's
// opened payload: that buffer is allocated by the decoding call for its
// result and shared by the values of one record, so a caller that
// modifies a Value in place modifies only its own decoded copy.
type WALOp struct {
	Key   string
	Value []byte
}

// encodeWALOps serializes a batch deterministically:
//
//	u32 count, then per op: u8 flags (always 0), u16 klen, key,
//	u32 vlen, value.
//
// A first pass checks the keys and sums the size, so the batch is encoded
// into one buffer of exactly that size.
func encodeWALOps(ops []WALOp) ([]byte, error) {
	size := 4
	for _, op := range ops {
		if len(op.Key) > 0xFFFF {
			return nil, fmt.Errorf("kvstore: wal key %d bytes exceeds 64KiB", len(op.Key))
		}
		size += 7 + len(op.Key) + len(op.Value)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(ops)))
	for _, op := range ops {
		buf = append(buf, 0)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	return buf, nil
}

// decodeWALOps reverses encodeWALOps. Every length is bounded by the bytes
// that remain, the declared count by the minimum op size before the batch
// is allocated, and non-zero flags and trailing bytes are rejected.
func decodeWALOps(buf []byte) ([]WALOp, error) {
	n32, r := codec.NewReader(buf).U32()
	n, r := r.Count(uint64(n32), 7) // an op is at least flags, u16 key length, u32 value length
	ops := make([]WALOp, n)
	for i := range ops {
		var flags byte
		var klen uint16
		var key, v []byte
		flags, r = r.U8()
		if flags != 0 {
			return nil, fmt.Errorf("kvstore: wal op %d has unknown flags %#x: %w", i, flags, codec.ErrMalformed)
		}
		klen, r = r.U16()
		key, r = r.Bytes(int(klen))
		ops[i].Key = string(key)
		// The payload belongs to this decode; Bytes caps the alias so an
		// append to one value cannot reach the next op.
		n32, r = r.U32()
		if v, r = r.Bytes(int(n32)); len(v) > 0 {
			ops[i].Value = v
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kvstore: wal ops: %w", err)
	}
	return ops, nil
}

// sealNonceLabel domain-separates the deterministic nonce. Its value is
// part of every sealed record's bytes; changing it moves them all.
var sealNonceLabel = []byte("kv-wal-wrap-nonce")

// sealer seals deterministically under one key: the box that seals and
// the HMAC that derives each nonce, built once and reused for every record
// sealed under the key. A sealer is not safe for concurrent sealing.
type sealer struct {
	box *cryptbox.Box
	mac hash.Hash
	sum [cryptbox.MACSize]byte
}

func newSealer(key cryptbox.Key) (*sealer, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	return &sealer{box: box, mac: cryptbox.NewMAC(key)}, nil
}

// sealDeterministic seals plaintext, appended to dst, under a nonce
// derived from the plaintext and AAD instead of a random one, so
// identical appends produce bit-identical bytes (the twin-determinism the
// recovery gate pins). The (key, nonce) pair can only recur for an
// identical (plaintext, aad) pair — which produces the identical sealed
// record — so determinism costs no nonce-reuse safety. The nonce is a
// MAC under the key, not a bare hash: a bare hash would let anyone who
// guesses a whole record and its AAD confirm the guess from the stored
// nonce. Keyed, the seal is a deterministic AEAD and reveals only whether
// two seals of the same (plaintext, aad) are equal.
func (s *sealer) sealDeterministic(dst, plaintext, aad []byte) ([]byte, error) {
	s.mac.Reset()
	s.mac.Write(plaintext)
	s.mac.Write(aad)
	s.mac.Write(sealNonceLabel)
	return s.box.SealWithNonce(dst, s.mac.Sum(s.sum[:0])[:cryptbox.NonceSize], plaintext, aad)
}

// WALSegment is one sealed epoch of a shard's log: the byte extent a Roll
// closed (or the live tail, for the current epoch). Segments are the unit
// of retention — a snapshot makes the epochs it covers collectible, and GC
// retires whole segments, never record prefixes.
type WALSegment struct {
	Epoch uint64
	Bytes []byte
}

// WAL is one shard's sealed write-ahead log. Its buffers model the durable
// medium: everything in them survives the process; nothing else does.
// Epochs tie the log to snapshots — publishing a snapshot rolls the WAL
// into the next epoch, sealing the previous one as a segment that stays on
// the durable medium until GC retires it. Recovery replays only the epochs
// at or after the snapshot's; GC may only retire epochs strictly before it.
type WAL struct {
	mu   sync.Mutex
	name string
	key  cryptbox.Key
	// seal seals every record under key; built on the first Append.
	seal  *sealer
	epoch uint64
	seq   uint64
	buf   []byte
	// segs holds the sealed (rolled, not yet GC'd) earlier epochs in
	// ascending epoch order; buf above is the live tail epoch.
	segs []WALSegment
}

// NewWAL opens an empty log for one shard.
func NewWAL(key cryptbox.Key, name string, epoch uint64) *WAL {
	return &WAL{name: name, key: key, epoch: epoch}
}

// Name returns the log's position-binding name.
func (w *WAL) Name() string { return w.name }

// Epoch returns the current (live tail) epoch.
func (w *WAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Roll seals the live tail as a segment (kept on the durable medium until
// GC) and starts the given epoch — the snapshot step. Empty tails seal
// too, preserving epoch contiguity on the medium.
func (w *WAL) Roll(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.segs = append(w.segs, WALSegment{Epoch: w.epoch, Bytes: w.buf})
	w.epoch = epoch
	w.seq = 0
	w.buf = nil
}

// Segments returns a copy of everything on the durable medium: the sealed
// earlier epochs in ascending order, then the live tail epoch — what a
// crashed process leaves behind for RecoverDurableStore.
func (w *WAL) Segments() []WALSegment {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WALSegment, 0, len(w.segs)+1)
	for _, s := range w.segs {
		out = append(out, WALSegment{Epoch: s.Epoch, Bytes: append([]byte(nil), s.Bytes...)})
	}
	out = append(out, WALSegment{Epoch: w.epoch, Bytes: append([]byte(nil), w.buf...)})
	return out
}

// gcRetainEpochs is GC's retention margin: the newest sealed epoch
// survives collection even when a snapshot covers it.
const gcRetainEpochs = 1

// GC retires sealed segments with epoch strictly below floor, keeping the
// newest gcRetainEpochs sealed epochs as a retention margin. The live tail
// is never touched, so with floor capped at the newest durable snapshot's
// epoch the crash window never widens. Returns segments and bytes retired.
func (w *WAL) GC(floor uint64) (retired int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.segs[:0]
	for idx, s := range w.segs {
		if s.Epoch < floor && idx < len(w.segs)-gcRetainEpochs {
			retired++
			bytes += int64(len(s.Bytes))
			continue
		}
		keep = append(keep, s)
	}
	w.segs = keep
	return retired, bytes
}

// walAAD binds a sealed WAL record to its log, epoch and sequence number,
// in the style of snapshotAAD: "kv-wal|name|epoch|seq", decimal.
func walAAD(name string, epoch, seq uint64) []byte {
	const prefix = "kv-wal|"
	aad := make([]byte, 0, len(prefix)+len(name)+2+2*20)
	aad = append(aad, prefix...)
	aad = append(aad, name...)
	aad = append(aad, '|')
	aad = strconv.AppendUint(aad, epoch, 10)
	aad = append(aad, '|')
	return strconv.AppendUint(aad, seq, 10)
}

// Append group-commits one batch as a single sealed record.
func (w *WAL) Append(ops []WALOp) error {
	if len(ops) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	payload, err := encodeWALOps(ops)
	if err != nil {
		return err
	}
	if w.seal == nil {
		if w.seal, err = newSealer(w.key); err != nil {
			return err
		}
	}
	// The record is sealed straight onto the log behind its length prefix;
	// growing the log first keeps the growth amortised, as append's is.
	n := len(payload) + w.seal.box.Overhead()
	buf := binary.BigEndian.AppendUint32(slices.Grow(w.buf, 4+n), uint32(n))
	buf, err = w.seal.sealDeterministic(buf, payload, walAAD(w.name, w.epoch, w.seq))
	if err != nil {
		return err
	}
	w.buf = buf
	w.seq++
	return nil
}

// DecodeWALRecord authenticates and decodes the record expected at
// (name, epoch, seq) from the front of buf, returning the batch and how
// many bytes the frame consumed. buf must run to the end of the log:
// whether a bad record is the final one — a crash point (ErrWALTorn) — or
// has records after it — corruption (ErrWALCorrupt) — is decided by
// whether its frame reaches exactly len(buf).
func DecodeWALRecord(key cryptbox.Key, name string, epoch, seq uint64, buf []byte) ([]WALOp, int, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, 0, err
	}
	return decodeWALRecord(box, name, epoch, seq, buf)
}

// decodeWALRecord is DecodeWALRecord with the log's box already built.
func decodeWALRecord(box *cryptbox.Box, name string, epoch, seq uint64, buf []byte) ([]WALOp, int, error) {
	n, r := codec.NewReader(buf).U32()
	sealed, r := r.Bytes(int(n))
	if err := r.Err(); err != nil {
		// The length prefix or the extent it declares runs past the log:
		// the append died mid-write (or the length field itself is
		// damaged — indistinguishable, and everything after it is
		// unwalkable either way).
		return nil, 0, fmt.Errorf("%w: record %d: %w", ErrWALTorn, seq, err)
	}
	end := len(buf) - r.Remaining()
	payload, err := box.Open(sealed, walAAD(name, epoch, seq))
	if err != nil {
		kind := ErrWALCorrupt
		if end == len(buf) {
			kind = ErrWALTorn
		}
		return nil, 0, fmt.Errorf("%w: record %d failed authentication", kind, seq)
	}
	// The seal covers payload and position: from here every failure means
	// the authenticated bytes themselves are wrong — forged under the key
	// or a writer bug — which no crash explains. Hard error regardless of
	// position.
	ops, err := decodeWALOps(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record %d: %w", ErrWALCorrupt, seq, err)
	}
	return ops, end, nil
}

// DecodeWAL walks a whole log, applying the torn-tail discipline: a torn
// final record is silently truncated (prefix reports the clean length),
// while mid-log corruption returns the batches before the damage alongside
// ErrWALCorrupt.
func DecodeWAL(key cryptbox.Key, name string, epoch uint64, buf []byte) (batches [][]WALOp, prefix int, err error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, 0, err
	}
	off := 0
	for seq := uint64(0); off < len(buf); seq++ {
		ops, n, err := decodeWALRecord(box, name, epoch, seq, buf[off:])
		if errors.Is(err, ErrWALTorn) {
			return batches, off, nil
		}
		if err != nil {
			return batches, off, err
		}
		batches = append(batches, ops)
		off += n
	}
	return batches, off, nil
}

// RecoverWAL rebuilds a usable log handle from crash-surviving bytes: the
// decoded batches for replay, plus a WAL truncated at the last clean record
// and positioned to append the next one.
func RecoverWAL(key cryptbox.Key, name string, epoch uint64, buf []byte) (*WAL, [][]WALOp, error) {
	batches, prefix, err := DecodeWAL(key, name, epoch, buf)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{
		name:  name,
		key:   key,
		epoch: epoch,
		seq:   uint64(len(batches)),
		buf:   append([]byte(nil), buf[:prefix]...),
	}
	return w, batches, nil
}

// attachSegments installs sealed earlier-epoch segments on a freshly
// recovered WAL so a post-recovery GC can still retire them
// (construction-time plumbing for RecoverDurableStore).
func (w *WAL) attachSegments(segs []WALSegment) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.segs = segs
}
