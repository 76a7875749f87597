package registry

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/transfer"
)

func packSnapshot(t *testing.T, name string, payload []byte) (*transfer.Manifest, [][]byte) {
	t.Helper()
	m, chunks, err := transfer.PackConvergent(name, payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m, chunks
}

func TestPutBlobSetDedup(t *testing.T) {
	r := New()
	payload := bytes.Repeat([]byte("shard-table."), 40)
	m, chunks := packSnapshot(t, "snap/a", payload)
	stored, err := r.PutBlobSet(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	// The repeating payload chunks convergently to repeating sealed bytes, so
	// duplicates dedup even within the first set: stored = unique leaves.
	unique := map[string]bool{}
	for _, d := range m.Leaves {
		unique[d.String()] = true
	}
	if stored != len(unique) {
		t.Fatalf("first publish stored %d, want %d unique of %d chunks", stored, len(unique), len(chunks))
	}
	before := r.Stats()
	// Re-publishing the identical blob set stores nothing new: every chunk
	// is a dedup hit against the convergent-sealed blobs already present.
	stored, err = r.PutBlobSet(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 {
		t.Fatalf("identical republish stored %d chunks", stored)
	}
	after := r.Stats()
	if after.Blobs != before.Blobs {
		t.Fatalf("blob count grew %d -> %d on identical blob set", before.Blobs, after.Blobs)
	}
	if got := after.DedupHits - before.DedupHits; got != uint64(len(chunks)) {
		t.Fatalf("dedup hits %d, want %d", got, len(chunks))
	}
}

func TestPutBlobSetRejectsMismatch(t *testing.T) {
	r := New()
	m, chunks := packSnapshot(t, "snap/a", bytes.Repeat([]byte("x"), 300))
	if _, err := r.PutBlobSet(m, chunks[:len(chunks)-1]); err == nil {
		t.Fatal("accepted short chunk list")
	}
	tampered := make([][]byte, len(chunks))
	copy(tampered, chunks)
	tampered[0] = append([]byte(nil), chunks[0]...)
	tampered[0][0] ^= 0xFF
	if _, err := r.PutBlobSet(m, tampered); err == nil {
		t.Fatal("accepted chunk that does not match its manifest digest")
	}
}

// TestPutBlobSetReferences pins the contract for nil chunks — references to
// blobs the registry already holds, which a memoised pack sends for
// chunks it did not re-seal.
func TestPutBlobSetReferences(t *testing.T) {
	held, heldChunks := packSnapshot(t, "snap/held", []byte("0123456789abcdef-held-table-contents"))
	fresh, freshChunks := packSnapshot(t, "snap/fresh", bytes.Repeat([]byte("fresh-"), 30))
	// refs is fresh's blob set with chunk i replaced by a reference to
	// held's chunk 0: the manifest names held's leaf there.
	refs := func(i int) (*transfer.Manifest, [][]byte) {
		m := *fresh
		m.Leaves = append([]cryptbox.Digest(nil), fresh.Leaves...)
		m.Leaves[i] = held.Leaves[0]
		m.Root = transfer.MerkleRoot(m.Leaves)
		chunks := append([][]byte(nil), freshChunks...)
		chunks[i] = nil
		return &m, chunks
	}
	setup := func(t *testing.T) *Registry {
		r := New()
		if _, err := r.PutBlobSet(held, heldChunks); err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("held leaf", func(t *testing.T) {
		r := setup(t)
		before := r.Stats()
		stored, err := r.PutBlobSet(held, make([][]byte, len(heldChunks)))
		if err != nil {
			t.Fatal(err)
		}
		after := r.Stats()
		if stored != 0 || after.Blobs != before.Blobs || after.BlobBytes != before.BlobBytes {
			t.Fatalf("references stored %d (blobs %d -> %d, bytes %d -> %d)",
				stored, before.Blobs, after.Blobs, before.BlobBytes, after.BlobBytes)
		}
		if got := after.DedupHits - before.DedupHits; got != uint64(len(heldChunks)) {
			t.Fatalf("dedup hits %d, want one per reference (%d)", got, len(heldChunks))
		}
	})
	t.Run("absent leaf", func(t *testing.T) {
		r := New()
		before := r.Stats()
		// The reference sits at chunk 0; every later chunk carries bytes.
		m, chunks := refs(0)
		if _, err := r.PutBlobSet(m, chunks); !errors.Is(err, ErrNotFound) {
			t.Fatalf("reference to an absent leaf: got %v, want ErrNotFound", err)
		}
		if after := r.Stats(); after != before {
			t.Fatalf("failed call changed the store: %+v -> %+v", before, after)
		}
		for _, leaf := range fresh.Leaves[1:] {
			if _, err := r.Blob(leaf); err == nil {
				t.Fatalf("blob %s of the refused call was stored", leaf)
			}
		}
	})
	t.Run("damaged held blob", func(t *testing.T) {
		r := setup(t)
		if !r.TamperBlob(held.Leaves[0], func(b []byte) []byte { b[0] ^= 0xFF; return b }) {
			t.Fatal("nothing to tamper")
		}
		before := r.Stats()
		m, chunks := refs(len(freshChunks) - 1)
		if _, err := r.PutBlobSet(m, chunks); !errors.Is(err, ErrConflict) {
			t.Fatalf("reference to a damaged blob: got %v, want ErrConflict", err)
		}
		if after := r.Stats(); after != before {
			t.Fatalf("failed call changed the store: %+v -> %+v", before, after)
		}
		// Re-sending the intact bytes meets the same error: the damaged copy
		// is caught whether the publisher references or re-sends it.
		if _, err := r.PutBlobSet(held, heldChunks); !errors.Is(err, ErrConflict) {
			t.Fatalf("intact duplicate of a damaged blob: got %v, want ErrConflict", err)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		r := setup(t)
		if _, err := r.PutBlobSet(held, make([][]byte, len(heldChunks)+1)); !errors.Is(err, ErrManifest) {
			t.Fatalf("extra reference: got %v, want ErrManifest", err)
		}
		if _, err := r.PutBlobSet(held, nil); !errors.Is(err, ErrManifest) {
			t.Fatalf("no chunks: got %v, want ErrManifest", err)
		}
	})
}

func TestPublishSnapshotRollbackRejected(t *testing.T) {
	r := New()
	if err := r.PublishSnapshot("svc/shard-0", 3, []byte("sealed-3")); err != nil {
		t.Fatal(err)
	}
	// Replaying an old (or equal) sequence is a rollback attempt and must
	// not displace the newer manifest.
	for _, seq := range []uint64{3, 2} {
		if err := r.PublishSnapshot("svc/shard-0", seq, []byte("stale")); !errors.Is(err, ErrConflict) {
			t.Fatalf("seq %d: got %v, want ErrConflict", seq, err)
		}
	}
	seq, sealed, ok := r.LatestSnapshot("svc/shard-0")
	if !ok || seq != 3 || !bytes.Equal(sealed, []byte("sealed-3")) {
		t.Fatalf("latest = %d %q %v", seq, sealed, ok)
	}
	if err := r.PublishSnapshot("svc/shard-0", 4, []byte("sealed-4")); err != nil {
		t.Fatal(err)
	}
	if seq, _, _ := r.LatestSnapshot("svc/shard-0"); seq != 4 {
		t.Fatalf("latest seq = %d after advance", seq)
	}
}

func TestLatestSnapshotMissing(t *testing.T) {
	if _, _, ok := New().LatestSnapshot("nope/shard-0"); ok {
		t.Fatal("found a snapshot in an empty registry")
	}
}

func TestSnapshotAtServesHistory(t *testing.T) {
	r := New()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := r.PublishSnapshot("svc/shard-0", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every published link stays retrievable — delta chains walk backwards.
	for seq := uint64(1); seq <= 3; seq++ {
		sealed, ok := r.SnapshotAt("svc/shard-0", seq)
		if !ok || !bytes.Equal(sealed, []byte{byte(seq)}) {
			t.Fatalf("seq %d: %q %v", seq, sealed, ok)
		}
	}
	if _, ok := r.SnapshotAt("svc/shard-0", 4); ok {
		t.Fatal("found a record that was never published")
	}
	if _, ok := r.SnapshotAt("svc/shard-9", 1); ok {
		t.Fatal("found a record under an unbound name")
	}
}

func TestHTTPSnapshotRoundTrip(t *testing.T) {
	r := New()
	if err := r.PublishSnapshot("svc/shard-1", 7, []byte("sealed-manifest")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	seq, sealed, ok := c.LatestSnapshot("svc/shard-1")
	if !ok || seq != 7 || !bytes.Equal(sealed, []byte("sealed-manifest")) {
		t.Fatalf("client latest = %d %q %v", seq, sealed, ok)
	}
	if _, _, ok := c.LatestSnapshot("svc/shard-2"); ok {
		t.Fatal("client found a snapshot that was never published")
	}
	if err := r.PublishSnapshot("svc/shard-1", 8, []byte("sealed-manifest-8")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.SnapshotAt("svc/shard-1", 7); !ok || !bytes.Equal(got, []byte("sealed-manifest")) {
		t.Fatalf("client seq 7 = %q %v", got, ok)
	}
	if _, ok := c.SnapshotAt("svc/shard-1", 9); ok {
		t.Fatal("client found a historical record that was never published")
	}
}
