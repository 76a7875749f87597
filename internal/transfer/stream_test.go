package transfer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"securecloud/internal/codec"
	"securecloud/internal/codec/codectest"
	"securecloud/internal/cryptbox"
)

func TestUnpackStreams(t *testing.T) {
	data := payload(300 << 10)
	m, chunks, err := PackConvergent("u", data, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = Unpack(m, cryptbox.Key{}, &out, func(idx int) ([]byte, error) { return chunks[idx], nil })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("unpack mismatch")
	}
	// A flipped chunk fails at its index without touching the others.
	bad := append([]byte(nil), chunks[3]...)
	bad[5] ^= 1
	err = Unpack(m, cryptbox.Key{}, &bytes.Buffer{}, func(idx int) ([]byte, error) {
		if idx == 3 {
			return bad, nil
		}
		return chunks[idx], nil
	})
	if !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v, want ErrBadChunk", err)
	}
}

func TestConvergentDeterministicAndDedupable(t *testing.T) {
	data := payload(200 << 10)
	m1, c1, err := PackConvergent("a", data, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := PackConvergent("b", data, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Root != m2.Root {
		t.Fatal("convergent packs of identical content produced different roots")
	}
	for i := range c1 {
		if !bytes.Equal(c1[i], c2[i]) {
			t.Fatalf("chunk %d not bit-identical across packs (dedup broken)", i)
		}
	}
	// A shared prefix across different payloads dedups chunk-for-chunk on
	// the aligned full chunks (the trailing partial chunk differs by size).
	longer := append(append([]byte(nil), data...), payload(32<<10)...)
	_, c3, err := PackConvergent("c", longer, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data)/(32<<10); i++ {
		if !bytes.Equal(c1[i], c3[i]) {
			t.Fatalf("shared-prefix chunk %d differs", i)
		}
	}
	// The manifest carries every key the receiver needs.
	got, err := unpackAll(m1, c1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("convergent round trip mismatch")
	}
}

// TestPackConvergentMemo: a memoised pack produces PackConvergent's
// manifest, sends only the chunks whose plaintext its memo lacks, and
// accounts every chunk's sealed bytes either way.
func TestPackConvergentMemo(t *testing.T) {
	const cs = 8 << 10
	data := payload(100 << 10)
	first, err := PackConvergentMemo("a", data, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 2 rewritten in place; everything else keeps its plaintext.
	next := append([]byte(nil), data...)
	next[2*cs+5] ^= 0xFF
	wantM, want, err := PackConvergent("a", next, cs)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes int64
	for _, c := range want {
		wantBytes += int64(len(c))
	}
	got, err := PackConvergentMemo("a", next, cs, first.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Manifest, wantM) || got.SealedBytes != wantBytes {
		t.Fatalf("memoised pack differs from PackConvergent (sealed bytes %d, want %d)", got.SealedBytes, wantBytes)
	}
	for i, c := range got.Chunks {
		if (c != nil) != (i == 2) {
			t.Fatalf("chunk %d sent=%v; want only chunk 2 sent", i, c != nil)
		}
	}
	if !bytes.Equal(got.Chunks[2], want[2]) {
		t.Fatal("re-sealed chunk differs from PackConvergent's")
	}
	if len(got.Memo) != len(want) {
		t.Fatalf("memo holds %d entries, want one per distinct chunk (%d)", len(got.Memo), len(want))
	}
}

func TestConvergentChunksOpaque(t *testing.T) {
	data := bytes.Repeat([]byte("SECRET-READING"), 5000)
	_, chunks, err := PackConvergent("x", data, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if bytes.Contains(c, []byte("SECRET-READING")) {
			t.Fatal("plaintext visible in convergent chunk")
		}
	}
}

func TestConvergentManifestKeyCountEnforced(t *testing.T) {
	m, _, err := PackConvergent("x", payload(100<<10), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	m.Keys = m.Keys[:len(m.Keys)-1]
	if err := m.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("short key list accepted: %v", err)
	}
}

// TestValidateRejectsForgedChunkCount mirrors the scbr codec forged-count
// fix: a manifest whose leaf count disagrees with its declared geometry is
// rejected before any chunk work happens.
func TestValidateRejectsForgedChunkCount(t *testing.T) {
	m, _, err := PackConvergent("x", payload(100<<10), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	extra := *m
	extra.Leaves = append(append([]cryptbox.Digest(nil), m.Leaves...), cryptbox.Sum([]byte("x")))
	extra.Keys = append(append([]cryptbox.Key(nil), m.Keys...), cryptbox.Key{})
	extra.Root = MerkleRoot(extra.Leaves)
	if err := extra.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("extra leaf accepted: %v", err)
	}
	short := *m
	short.Leaves = m.Leaves[:len(m.Leaves)-1]
	short.Keys = m.Keys[:len(m.Keys)-1]
	short.Root = MerkleRoot(short.Leaves)
	if err := short.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("missing leaf accepted: %v", err)
	}
	huge := *m
	huge.Size = 1 << 50 // demands millions of chunks it does not have
	if err := huge.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("forged size accepted: %v", err)
	}
	// The giant-chunk variant: a forged manifest cannot pair a huge Size
	// with a huge ChunkSize to keep the leaf count plausible — ChunkSize is
	// capped, which also caps what any one chunk may inflate to.
	giant := *m
	giant.Size = 1 << 50
	giant.ChunkSize = 1 << 47
	giant.Leaves = m.Leaves[:1]
	giant.Keys = m.Keys[:1]
	giant.Root = MerkleRoot(giant.Leaves)
	if err := giant.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("giant chunk size accepted: %v", err)
	}
	if _, _, err := PackConvergent("x", []byte("data"), maxInflate+1); !errors.Is(err, ErrManifest) {
		t.Fatalf("PackConvergent accepted an oversized chunk size: %v", err)
	}
}

func TestDecodeManifestValidates(t *testing.T) {
	m, _, err := PackConvergent("x", payload(64<<10), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(m.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("decode round trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
	bad := *m
	bad.ChunkSize = 0
	if _, err := DecodeManifest(bad.AppendBinary(nil)); !errors.Is(err, ErrManifest) {
		t.Fatalf("bad geometry decoded: %v", err)
	}
	bad = *m
	bad.Root[0] ^= 1
	if _, err := DecodeManifest(bad.AppendBinary(nil)); !errors.Is(err, ErrManifest) {
		t.Fatalf("wrong root decoded: %v", err)
	}
	if _, err := DecodeManifest([]byte("not a manifest")); !errors.Is(err, ErrManifest) {
		t.Fatalf("garbage decoded: %v", err)
	}
	if _, err := DecodeManifest(append(m.AppendBinary(nil), 0)); !errors.Is(err, ErrManifest) || !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("trailing byte: want ErrManifest and codec.ErrMalformed, got %v", err)
	}
}

// TestDecodeManifestRejectsKeyless: every chunk is sealed under its own
// manifest key, so a manifest without keys names chunks nothing can open.
// It is malformed, and refused before any chunk is fetched.
func TestDecodeManifestRejectsKeyless(t *testing.T) {
	m, chunks, err := PackConvergent("x", payload(64<<10), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	m.Keys = nil
	if _, err := DecodeManifest(m.AppendBinary(nil)); !errors.Is(err, ErrManifest) {
		t.Fatalf("keyless manifest decoded: %v", err)
	}
	fetched := 0
	err = Unpack(m, cryptbox.Key{}, &bytes.Buffer{}, func(idx int) ([]byte, error) {
		fetched++
		return chunks[idx], nil
	})
	if !errors.Is(err, ErrManifest) || fetched != 0 {
		t.Fatalf("Unpack of a keyless manifest: err %v after %d fetches, want ErrManifest before any", err, fetched)
	}
}

// TestDecodeManifestForgedCount: a leaf count the remaining bytes cannot
// hold is refused before the leaves and keys are allocated, so a forged
// count cannot make the decoder allocate what the input does not carry.
func TestDecodeManifestForgedCount(t *testing.T) {
	m, _, err := PackConvergent("x", payload(64<<10), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	raw := m.AppendBinary(nil)
	head := len(raw) - m.Chunks()*entryBytes - 4 // up to the leaf count
	forged := binary.BigEndian.AppendUint32(raw[:head:head], 1<<20)
	forged = append(forged, raw[head+4:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeManifest(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrManifest) || !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("forged count: want ErrManifest and codec.ErrMalformed, got %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("a forged count of 2^20 leaves made the decoder allocate %d B", n)
	}
}

// FuzzDecodeManifest asserts the codec property on manifest decoding,
// attacker-controlled input (the registry serves manifests to pulling
// nodes, and the kvstore chain record embeds one): what decodes, and so
// validated, re-encodes to its input, and every prefix and trailing byte
// is refused.
func FuzzDecodeManifest(f *testing.F) {
	m, _, err := PackConvergent("seed", []byte("seed-payload"), 8)
	if err != nil {
		f.Fatal(err)
	}
	raw := m.AppendBinary(nil)
	f.Add(raw)
	huge := *m
	huge.Size = 1 << 60
	f.Add(huge.AppendBinary(nil))
	keyless := *m
	keyless.Keys = nil
	f.Add(keyless.AppendBinary(nil))
	f.Add([]byte("not a manifest"))
	decode := func(b []byte) ([]byte, int, int, error) {
		m, err := DecodeManifest(b)
		if err != nil {
			return nil, 0, 0, err
		}
		return m.AppendBinary(nil), 0, len(b), nil
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		codectest.Check(t, b, false, decode, ErrManifest)
	})
}

// TestStreamedEmptyPayload: an empty payload packs to one empty chunk, and
// a payload that is an exact multiple of the chunk size gets no trailing
// empty chunk.
func TestStreamedEmptyPayload(t *testing.T) {
	m, _, err := PackConvergent("empty", []byte{}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := PackConvergent("exact", payload(2048), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Chunks() != 2 {
		t.Fatalf("2048 bytes at chunk size 1024: %d chunks, want 2", exact.Chunks())
	}
	if m.Chunks() != 1 || m.Size != 0 {
		t.Fatalf("empty payload: %d chunks, size %d", m.Chunks(), m.Size)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPackConvergentKnownAnswer pins the sealed bytes of one convergent
// pack through its leaf-0 digest and Merkle root: a change to the
// deflate level, the key or nonce derivation, the AAD or the seal moves
// them, and with them every chunk address the registry holds.
func TestPackConvergentKnownAnswer(t *testing.T) {
	const (
		wantLeaf0 = "sha256:1cf36d1144ae9843f2219ca68b573418ae4eb2e4757be76a1c73ef2d484ea1ec"
		wantRoot  = "sha256:8f4ec6f23024333f9273b68cb1242576ac26f4e250cfab666d8290787c9ebbab"
	)
	m, _, err := PackConvergent("kat", payload(100<<10), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Leaves[0].String(); got != wantLeaf0 {
		t.Errorf("leaf 0 %s, want %s", got, wantLeaf0)
	}
	if got := m.Root.String(); got != wantRoot {
		t.Errorf("root %s, want %s", got, wantRoot)
	}
}
