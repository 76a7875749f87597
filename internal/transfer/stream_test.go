package transfer

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

func TestPackStreamMatchesPack(t *testing.T) {
	data := payload(600 << 10)
	wantM, wantChunks, err := Pack("s", data, key(), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var gotChunks [][]byte
	gotM, err := PackStream("s", bytes.NewReader(data), key(), 64<<10, func(idx int, sealed []byte) error {
		if idx != len(gotChunks) {
			t.Fatalf("emit out of order: %d", idx)
		}
		gotChunks = append(gotChunks, sealed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotM.Size != wantM.Size || gotM.Chunks() != wantM.Chunks() || gotM.Root != wantM.Root {
		// Roots differ only through sealed bytes, which are nonce-randomized
		// in keyed mode — so compare geometry, then chunk counts.
		if gotM.Size != wantM.Size || gotM.Chunks() != wantM.Chunks() {
			t.Fatalf("stream geometry (%d, %d) != pack geometry (%d, %d)",
				gotM.Size, gotM.Chunks(), wantM.Size, wantM.Chunks())
		}
	}
	if len(gotChunks) != len(wantChunks) {
		t.Fatalf("chunks %d != %d", len(gotChunks), len(wantChunks))
	}
	// The streamed manifest must reassemble to the same payload.
	r, err := NewReceiver(gotM, key())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range gotChunks {
		if err := r.Accept(i, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed pack did not round-trip")
	}
}

func TestUnpackStreams(t *testing.T) {
	data := payload(300 << 10)
	m, chunks, err := Pack("u", data, key(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = Unpack(m, key(), &out, func(idx int) ([]byte, error) { return chunks[idx], nil })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("unpack mismatch")
	}
	// A flipped chunk fails at its index without touching the others.
	bad := append([]byte(nil), chunks[3]...)
	bad[5] ^= 1
	err = Unpack(m, key(), &bytes.Buffer{}, func(idx int) ([]byte, error) {
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
	// Receiver needs no key for convergent manifests.
	r, err := NewReceiver(m1, cryptbox.Key{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range c1 {
		if err := r.Accept(i, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Assemble()
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
	m, chunks, err := PackConvergent("x", payload(100<<10), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	m.Keys = m.Keys[:len(m.Keys)-1]
	if _, err := NewReceiver(m, cryptbox.Key{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("short key list accepted: %v", err)
	}
	_ = chunks
}

// TestValidateRejectsForgedChunkCount mirrors the scbr codec forged-count
// fix: a manifest whose leaf count disagrees with its declared geometry is
// rejected before any chunk work happens.
func TestValidateRejectsForgedChunkCount(t *testing.T) {
	m, _, err := Pack("x", payload(100<<10), key(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	extra := *m
	extra.Leaves = append(append([]cryptbox.Digest(nil), m.Leaves...), cryptbox.Sum([]byte("x")))
	extra.Root = MerkleRoot(extra.Leaves)
	if err := extra.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("extra leaf accepted: %v", err)
	}
	short := *m
	short.Leaves = m.Leaves[:len(m.Leaves)-1]
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
	giant.Root = MerkleRoot(giant.Leaves)
	if err := giant.Validate(); !errors.Is(err, ErrManifest) {
		t.Fatalf("giant chunk size accepted: %v", err)
	}
	if _, _, err := Pack("x", []byte("data"), key(), maxInflate+1); !errors.Is(err, ErrManifest) {
		t.Fatalf("Pack accepted an oversized chunk size: %v", err)
	}
}

func TestDecodeManifestValidates(t *testing.T) {
	m, _, err := Pack("x", payload(64<<10), key(), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != m.Root {
		t.Fatal("decode round trip lost the root")
	}
	if _, err := DecodeManifest([]byte(`{"chunk_size":-1}`)); !errors.Is(err, ErrManifest) {
		t.Fatalf("bad geometry decoded: %v", err)
	}
	if _, err := DecodeManifest([]byte(`not json`)); !errors.Is(err, ErrManifest) {
		t.Fatalf("garbage decoded: %v", err)
	}
}

// FuzzDecodeManifest guards manifest decoding against panics and forged
// geometry on attacker-controlled input (the registry serves manifests to
// pulling nodes).
func FuzzDecodeManifest(f *testing.F) {
	m, _, err := Pack("seed", []byte("seed-payload"), cryptbox.Key{}, 8)
	if err != nil {
		f.Fatal(err)
	}
	raw, _ := json.Marshal(m)
	f.Add(raw)
	f.Add([]byte(`{"name":"x","size":1152921504606846976,"chunk_size":1,"leaves":[],"root":[0]}`))
	f.Add([]byte(`{"chunk_size":0}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		// Anything that decodes must be internally consistent.
		if err := m.Validate(); err != nil {
			t.Fatalf("DecodeManifest returned an invalid manifest: %v", err)
		}
	})
}

// TestAccountedAssembleDeterministic: with accounting attached, cycle and
// fault totals are a pure function of the payload — identical whether the
// chunks arrived in order, in reverse, or with duplicates.
func TestAccountedAssembleDeterministic(t *testing.T) {
	data := payload(400 << 10)
	m, chunks, err := PackConvergent("acct", data, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	run := func(order []int) (sim.Cycles, uint64) {
		enc, arena, err := enclave.NewWorker(enclave.Config{}, 8<<20, "transfer-test")
		if err != nil {
			t.Fatal(err)
		}
		defer enc.Destroy()
		r, err := NewReceiver(m, cryptbox.Key{})
		if err != nil {
			t.Fatal(err)
		}
		r.WithAccounting(Accounting{Mem: enc.Memory(), Arena: arena})
		for _, i := range order {
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
		return enc.Memory().Cycles(), enc.Memory().Faults()
	}
	fwd := make([]int, len(chunks))
	rev := make([]int, 0, len(chunks)*2)
	for i := range chunks {
		fwd[i] = i
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		rev = append(rev, i, i) // reverse order with duplicates
	}
	c1, f1 := run(fwd)
	c2, f2 := run(rev)
	if c1 == 0 {
		t.Fatal("accounted assemble charged no cycles")
	}
	if c1 != c2 || f1 != f2 {
		t.Fatalf("accounting depends on arrival order: (%d,%d) vs (%d,%d)", c1, f1, c2, f2)
	}
}

func TestStreamedEmptyPayload(t *testing.T) {
	m, err := PackConvergentStream("empty", bytes.NewReader(nil), 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks() != 1 || m.Size != 0 {
		t.Fatalf("empty payload: %d chunks, size %d", m.Chunks(), m.Size)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
