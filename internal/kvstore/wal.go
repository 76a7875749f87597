// The per-shard sealed write-ahead log. A WAL is the durable half of a
// shard: PutBatch appends one group-commit record per tick, and the byte
// buffer — not the in-memory table — is what survives a crash. The format
// composes the repo's existing sealing layers instead of inventing one:
//
//	frame   = u32 len | body | mac[32]
//	body    = u32 wrappedLen | wrapped convergent key | u32 sealedLen | sealed ops
//	sealed  = transfer.SealConvergent(encodeWALOps(batch))   (raw, not deflated)
//	wrapped = convergent key sealed under the shard WAL key (deterministic nonce)
//	mac     = fsshield.MACChunk(walKey, body, fsshield.ChunkAAD(name, epoch, seq, 0))
//
// The payload is convergently sealed (content-derived key, deterministic
// nonce), so identical batches produce bit-identical sealed segments and
// dedup wherever log segments are stored content-addressed. It is sealed
// raw: a group-commit record is a few KiB of keys and values, on which
// deflate saved no bytes (records came out larger) while building its
// Huffman tables took ≈ 90 % of an append's CPU. Position binding comes
// from the fsshield chunk AAD: a record authenticated at (log, epoch, seq)
// cannot be replayed at any other position, the same cut-and-paste defence
// the protected FS gives file chunks. Total = 0 in the AAD marks the extent
// open-ended — a log grows, unlike a file of known chunk count.
//
// Torn-tail discipline (the crash contract): a record that is incomplete —
// truncated framing, or a full final frame whose MAC fails — is a clean
// crash point; recovery truncates it and continues. The same damage
// anywhere before the final record cannot be explained by a crash during a
// sequential append and is a hard integrity error.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/fsshield"
	"securecloud/internal/transfer"
)

// WAL errors.
var (
	// ErrWALTorn marks a truncated or MAC-failing final record — the clean
	// crash point. Recovery truncates at the last good record and continues.
	ErrWALTorn = errors.New("kvstore: wal torn tail")
	// ErrWALCorrupt marks damage that a crash cannot explain: a bad record
	// with valid records after it, or an authenticated record whose payload
	// does not decode. Recovery must fail loudly.
	ErrWALCorrupt = errors.New("kvstore: wal corrupt")
)

// WALOp is one logged mutation.
type WALOp struct {
	Key    string
	Value  []byte
	Delete bool
}

// walOpMinBytes is the smallest encoded op (flags + u16 key length, for an
// empty-key delete). decodeWALOps bounds a record's declared op count by it
// against the record's byte length before any allocation — the
// forged-count guard, mirroring transfer.Manifest.Validate.
const walOpMinBytes = 3

// encodeWALOps serializes a batch deterministically:
//
//	u32 count, then per op: u8 flags (bit0 = delete), u16 klen, key,
//	and for puts u32 vlen, value.
func encodeWALOps(ops []WALOp) ([]byte, error) {
	buf := make([]byte, 4, 4+len(ops)*16)
	binary.BigEndian.PutUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		if len(op.Key) > 0xFFFF {
			return nil, fmt.Errorf("kvstore: wal key %d bytes exceeds 64KiB", len(op.Key))
		}
		var flags byte
		if op.Delete {
			flags = 1
		}
		buf = append(buf, flags)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(op.Key)))
		buf = append(buf, op.Key...)
		if !op.Delete {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	return buf, nil
}

// decodeWALOps reverses encodeWALOps with incremental bounds checks; every
// length is validated against the remaining bytes before use, and the
// declared count against the minimum op size before allocating.
func decodeWALOps(buf []byte) ([]WALOp, error) {
	if len(buf) < 4 {
		return nil, errors.New("kvstore: wal ops truncated before count")
	}
	count := int(binary.BigEndian.Uint32(buf))
	rest := buf[4:]
	if count > len(rest)/walOpMinBytes {
		return nil, fmt.Errorf("kvstore: wal ops count %d exceeds %d bytes", count, len(rest))
	}
	ops := make([]WALOp, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < walOpMinBytes {
			return nil, fmt.Errorf("kvstore: wal op %d truncated", i)
		}
		flags := rest[0]
		if flags > 1 {
			return nil, fmt.Errorf("kvstore: wal op %d has unknown flags %#x", i, flags)
		}
		klen := int(binary.BigEndian.Uint16(rest[1:3]))
		rest = rest[3:]
		if len(rest) < klen {
			return nil, fmt.Errorf("kvstore: wal op %d key overruns record", i)
		}
		op := WALOp{Key: string(rest[:klen]), Delete: flags == 1}
		rest = rest[klen:]
		if !op.Delete {
			if len(rest) < 4 {
				return nil, fmt.Errorf("kvstore: wal op %d truncated before value length", i)
			}
			vlen := int(binary.BigEndian.Uint32(rest))
			rest = rest[4:]
			if vlen > len(rest) {
				return nil, fmt.Errorf("kvstore: wal op %d value overruns record", i)
			}
			op.Value = append([]byte(nil), rest[:vlen]...)
			rest = rest[vlen:]
		}
		ops = append(ops, op)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("kvstore: wal ops carry %d trailing bytes", len(rest))
	}
	return ops, nil
}

// walWrapNonceLabel domain-separates the deterministic wrap nonce.
const walWrapNonceLabel = "kv-wal-wrap-nonce"

// sealDeterministic seals plaintext under key with a nonce derived from the
// plaintext and AAD instead of a random one, so identical appends produce
// bit-identical log bytes (the twin-determinism the recovery gate pins).
// The (key, nonce) pair can only recur for an identical (plaintext, aad)
// pair — which produces the identical sealed record — so determinism costs
// no nonce-reuse safety, the same argument transfer makes for convergent
// chunks.
func sealDeterministic(key cryptbox.Key, plaintext, aad []byte) ([]byte, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	seed := make([]byte, 0, len(plaintext)+len(aad)+len(walWrapNonceLabel))
	seed = append(seed, plaintext...)
	seed = append(seed, aad...)
	seed = append(seed, walWrapNonceLabel...)
	sum := cryptbox.Sum(seed)
	box.SetNonceSource(bytes.NewReader(sum[:cryptbox.NonceSize]))
	return box.Seal(plaintext, aad)
}

// WALSegment is one sealed epoch of a shard's log: the byte extent a Roll
// closed (or the live tail, for the current epoch). Segments are the unit
// of retention — a snapshot makes the epochs it covers collectible, and GC
// retires whole segments, never record prefixes.
type WALSegment struct {
	Epoch   uint64
	Bytes   []byte
	Records int
}

// WAL is one shard's sealed write-ahead log. Its buffers model the durable
// medium: everything in them survives the process; nothing else does.
// Epochs tie the log to snapshots — publishing a snapshot rolls the WAL
// into the next epoch, sealing the previous one as a segment that stays on
// the durable medium until GC retires it. Recovery replays only the epochs
// at or after the snapshot's; GC may only retire epochs strictly before it.
type WAL struct {
	mu      sync.Mutex
	name    string
	key     cryptbox.Key
	epoch   uint64
	seq     uint64
	buf     []byte
	records int
	// segs holds the sealed (rolled, not yet GC'd) earlier epochs in
	// ascending epoch order; buf/records above are the live tail epoch.
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

// Records returns how many records the live tail epoch holds.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Bytes returns a copy of the live tail epoch's log bytes.
func (w *WAL) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf...)
}

// Reset discards the whole log — sealed segments included — and starts the
// given epoch with nothing durable behind it. Snapshots use Roll instead;
// Reset is for abandoning a log.
func (w *WAL) Reset(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.epoch = epoch
	w.seq = 0
	w.records = 0
	w.buf = nil
	w.segs = nil
}

// Roll seals the live tail as a segment (kept on the durable medium until
// GC) and starts the given epoch — the snapshot step. Empty tails seal
// too, preserving epoch contiguity on the medium.
func (w *WAL) Roll(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.segs = append(w.segs, WALSegment{Epoch: w.epoch, Bytes: w.buf, Records: w.records})
	w.epoch = epoch
	w.seq = 0
	w.records = 0
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
		out = append(out, WALSegment{Epoch: s.Epoch, Bytes: append([]byte(nil), s.Bytes...), Records: s.Records})
	}
	out = append(out, WALSegment{Epoch: w.epoch, Bytes: append([]byte(nil), w.buf...), Records: w.records})
	return out
}

// GC retires sealed segments with epoch strictly below floor, keeping the
// newest retain sealed epochs as a retention margin. The live tail is
// never touched, so with floor capped at the newest durable snapshot's
// epoch the crash window never widens. Returns segments and bytes retired.
func (w *WAL) GC(floor uint64, retain int) (retired int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if retain < 0 {
		retain = 0
	}
	keep := w.segs[:0]
	for idx, s := range w.segs {
		// Segments newer than (len - retain) stay as the retention margin;
		// everything else below floor goes.
		inMargin := idx >= len(w.segs)-retain
		if s.Epoch < floor && !inMargin {
			retired++
			bytes += int64(len(s.Bytes))
			continue
		}
		keep = append(keep, s)
	}
	w.segs = keep
	return retired, bytes
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
	convKey, sealed, err := transfer.SealConvergent(payload)
	if err != nil {
		return err
	}
	aad := fsshield.ChunkAAD(w.name, w.epoch, int(w.seq), 0)
	wrapped, err := sealDeterministic(w.key, convKey[:], aad)
	if err != nil {
		return err
	}
	body := make([]byte, 0, 8+len(wrapped)+len(sealed))
	body = binary.BigEndian.AppendUint32(body, uint32(len(wrapped)))
	body = append(body, wrapped...)
	body = binary.BigEndian.AppendUint32(body, uint32(len(sealed)))
	body = append(body, sealed...)
	tag := fsshield.MACChunk(w.key, body, aad)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(body)+cryptbox.MACSize))
	w.buf = append(w.buf, body...)
	w.buf = append(w.buf, tag[:]...)
	w.seq++
	w.records++
	return nil
}

// DecodeWALRecord authenticates and decodes the record expected at
// (name, epoch, seq) from the front of buf, returning the batch and how
// many bytes the frame consumed. buf must run to the end of the log:
// whether a bad record is the final one — a crash point (ErrWALTorn) — or
// has records after it — corruption (ErrWALCorrupt) — is decided by
// whether its frame reaches exactly len(buf).
func DecodeWALRecord(key cryptbox.Key, name string, epoch, seq uint64, buf []byte) ([]WALOp, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: %d bytes of trailing framing", ErrWALTorn, len(buf))
	}
	rl := int(binary.BigEndian.Uint32(buf))
	end := 4 + rl
	if end > len(buf) {
		// Declared extent overruns the log: the append died mid-write (or
		// the length field itself is damaged — indistinguishable, and
		// everything after it is unwalkable either way).
		return nil, 0, fmt.Errorf("%w: record %d declares %d bytes, %d remain", ErrWALTorn, seq, rl, len(buf)-4)
	}
	tornOrCorrupt := func(format string, args ...any) error {
		kind := ErrWALCorrupt
		if end == len(buf) {
			kind = ErrWALTorn
		}
		return fmt.Errorf("%w: record %d: %s", kind, seq, fmt.Sprintf(format, args...))
	}
	if rl < cryptbox.MACSize+8 {
		return nil, 0, tornOrCorrupt("%d bytes below frame minimum", rl)
	}
	body := buf[4 : end-cryptbox.MACSize]
	var tag [cryptbox.MACSize]byte
	copy(tag[:], buf[end-cryptbox.MACSize:end])
	aad := fsshield.ChunkAAD(name, epoch, int(seq), 0)
	if !fsshield.VerifyChunkMAC(key, body, aad, tag) {
		return nil, 0, tornOrCorrupt("MAC verification failed")
	}
	// The MAC covers body and position: from here every failure means the
	// authenticated bytes themselves are wrong — forged under the key or a
	// writer bug — which no crash explains. Hard error regardless of
	// position.
	wl := int(binary.BigEndian.Uint32(body))
	if 4+wl > len(body)-4 {
		return nil, 0, fmt.Errorf("%w: record %d wrapped key overruns body", ErrWALCorrupt, seq)
	}
	wrapped := body[4 : 4+wl]
	rest := body[4+wl:]
	sl := int(binary.BigEndian.Uint32(rest))
	if 4+sl != len(rest) {
		return nil, 0, fmt.Errorf("%w: record %d sealed payload length mismatch", ErrWALCorrupt, seq)
	}
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, 0, err
	}
	rawKey, err := box.Open(wrapped, aad)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record %d key unwrap failed", ErrWALCorrupt, seq)
	}
	convKey, err := cryptbox.KeyFromBytes(rawKey)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record %d: %v", ErrWALCorrupt, seq, err)
	}
	payload, err := transfer.OpenConvergent(convKey, rest[4:], 0)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record %d payload: %v", ErrWALCorrupt, seq, err)
	}
	ops, err := decodeWALOps(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record %d: %v", ErrWALCorrupt, seq, err)
	}
	return ops, end, nil
}

// DecodeWAL walks a whole log, applying the torn-tail discipline: a torn
// final record is silently truncated (prefix reports the clean length),
// while mid-log corruption returns the batches before the damage alongside
// ErrWALCorrupt.
func DecodeWAL(key cryptbox.Key, name string, epoch uint64, buf []byte) (batches [][]WALOp, prefix int, err error) {
	off := 0
	for seq := uint64(0); off < len(buf); seq++ {
		ops, n, err := DecodeWALRecord(key, name, epoch, seq, buf[off:])
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
		name:    name,
		key:     key,
		epoch:   epoch,
		seq:     uint64(len(batches)),
		buf:     append([]byte(nil), buf[:prefix]...),
		records: len(batches),
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
