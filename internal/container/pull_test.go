package container

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/sim"
	"securecloud/internal/transfer"
)

// pullFixture is a registry holding two images that share a multi-chunk
// base layer, plus a builder for engines against it.
type pullFixture struct {
	reg  *registry.Registry
	imgs []*image.Image
}

func newPullFixture(t *testing.T) *pullFixture {
	t.Helper()
	reg := registry.New()
	base := make([]byte, 4*registry.LayerChunkSize)
	sim.NewRand(11).Read(base)
	var imgs []*image.Image
	for i := 0; i < 2; i++ {
		priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{byte(i + 1)}, ed25519.SeedSize))
		uniq := make([]byte, 3*registry.LayerChunkSize/2)
		sim.NewRand(int64(100 + i)).Read(uniq)
		img, err := image.NewBuilder("svc/pull", string(rune('a'+i))).
			AddLayer(map[string][]byte{"/lib/base": base}).
			AddLayer(map[string][]byte{EntrypointPath: uniq}).
			SetEntrypoint(EntrypointPath).
			SetEnclaveSize(1 << 20).
			Build(priv)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Push(img); err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	return &pullFixture{reg: reg, imgs: imgs}
}

func (f *pullFixture) engine(workers int, cache *BlobCache) *Engine {
	e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), f.reg, nil)
	e.PullWorkers = workers
	e.Cache = cache
	return e
}

// TestPullMatchesWholeLayerPath: the chunk-granular pull reconstructs the
// image bit-identically to both the original and the registry's
// whole-layer reassembly path.
func TestPullMatchesWholeLayerPath(t *testing.T) {
	f := newPullFixture(t)
	e := f.engine(4, NewBlobCache())
	for _, want := range f.imgs {
		got, ps, err := e.PullImage(want.Manifest.Name, want.Manifest.Tag)
		if err != nil {
			t.Fatal(err)
		}
		if ps.ChunksTotal == 0 || ps.Layers != 2 {
			t.Fatalf("stats = %+v", ps)
		}
		whole, err := f.reg.Pull(want.Manifest.Name, want.Manifest.Tag)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range []*image.Image{want, whole} {
			if len(got.Layers) != len(ref.Layers) {
				t.Fatalf("layer count %d != %d", len(got.Layers), len(ref.Layers))
			}
			for i := range got.Layers {
				if !bytes.Equal(got.Layers[i].Encode(), ref.Layers[i].Encode()) {
					t.Fatalf("layer %d not bit-identical", i)
				}
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPullStatsInvariantAcrossWorkers: every simulated pull metric is a
// pure function of image and cache state — bit-identical across worker
// counts 1, 2, 4, 8 for cold, shared-base and warm pulls.
func TestPullStatsInvariantAcrossWorkers(t *testing.T) {
	f := newPullFixture(t)
	type run struct{ cold, shared, warm PullStats }
	var first run
	for wi, workers := range []int{1, 2, 4, 8} {
		cache := NewBlobCache()
		e := f.engine(workers, cache)
		var r run
		var err error
		if _, r.cold, err = e.PullImage("svc/pull", "a"); err != nil {
			t.Fatal(err)
		}
		if _, r.shared, err = e.PullImage("svc/pull", "b"); err != nil {
			t.Fatal(err)
		}
		if _, r.warm, err = e.PullImage("svc/pull", "a"); err != nil {
			t.Fatal(err)
		}
		if wi == 0 {
			first = r
			if r.cold.ChunksFetch != r.cold.UniqueChunks || r.cold.CacheHits != 0 {
				t.Fatalf("cold pull: %+v", r.cold)
			}
			if r.shared.CacheHits == 0 || r.shared.ChunksFetch >= r.shared.UniqueChunks {
				t.Fatalf("shared-base pull did not reuse the cache: %+v", r.shared)
			}
			if r.warm.ChunksFetch != 0 || r.warm.CacheHits != r.warm.UniqueChunks {
				t.Fatalf("warm pull fetched chunks: %+v", r.warm)
			}
			if r.cold.SerialCycles == 0 || r.cold.CriticalCycles == 0 {
				t.Fatalf("cold pull charged no cycles: %+v", r.cold)
			}
			continue
		}
		if r != first {
			t.Fatalf("pull stats vary with worker count %d:\n  got  %+v\n  want %+v", workers, r, first)
		}
	}
}

// TestWarmCacheSecondReplicaZeroFetch: two engines sharing one node cache
// — the second replica's boot pulls nothing over the network.
func TestWarmCacheSecondReplicaZeroFetch(t *testing.T) {
	f := newPullFixture(t)
	cache := NewBlobCache()
	e1 := f.engine(4, cache)
	if _, ps, err := e1.PullImage("svc/pull", "a"); err != nil || ps.ChunksFetch == 0 {
		t.Fatalf("first replica: %+v, %v", ps, err)
	}
	e2 := f.engine(4, cache)
	img, ps, err := e2.PullImage("svc/pull", "a")
	if err != nil {
		t.Fatal(err)
	}
	if ps.ChunksFetch != 0 || ps.BytesFetched != 0 {
		t.Fatalf("second replica fetched: %+v", ps)
	}
	if err := img.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedChunkRejectedWithoutPoisoningCache: a dishonest registry
// flipping one chunk fails that chunk's pull; every other chunk is
// verified and cached, and after the source heals, the retry resumes by
// fetching exactly the one missing chunk.
func TestTamperedChunkRejectedWithoutPoisoningCache(t *testing.T) {
	f := newPullFixture(t)
	lm, err := f.reg.LayerManifest(f.imgs[0].Manifest.LayerDigests[0])
	if err != nil {
		t.Fatal(err)
	}
	victim := lm.Leaves[2]
	orig, err := f.reg.Blob(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !f.reg.TamperBlob(victim, func(b []byte) []byte { b[7] ^= 1; return b }) {
		t.Fatal("tamper hook missed blob")
	}

	cache := NewBlobCache()
	e := f.engine(4, cache)
	_, ps, err := e.PullImage("svc/pull", "a")
	if !errors.Is(err, ErrChunkVerify) {
		t.Fatalf("err = %v, want ErrChunkVerify", err)
	}
	if ps.ChunksFailed != 1 {
		t.Fatalf("failed = %d, want 1", ps.ChunksFailed)
	}
	if ps.ChunksFetch != ps.UniqueChunks-1 {
		t.Fatalf("fetched %d of %d; honest chunks should cache", ps.ChunksFetch, ps.UniqueChunks)
	}
	st := cache.Stats()
	if st.Stores != uint64(ps.UniqueChunks-1) {
		t.Fatalf("cache stores = %d, want %d", st.Stores, ps.UniqueChunks-1)
	}
	// The tampered bytes never entered the cache under the victim digest.
	if b, ok := cache.peek(victim); ok {
		t.Fatalf("tampered chunk cached: %d bytes", len(b))
	}

	// Heal the registry; the retry resumes: exactly one chunk crosses.
	if !f.reg.RestoreBlob(victim, orig) {
		t.Fatal("restore failed")
	}
	img, ps2, err := e.PullImage("svc/pull", "a")
	if err != nil {
		t.Fatal(err)
	}
	if ps2.ChunksFetch != 1 || ps2.CacheHits != ps2.UniqueChunks-1 {
		t.Fatalf("resume fetched %d (cache hits %d), want exactly 1", ps2.ChunksFetch, ps2.CacheHits)
	}
	if err := img.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCachePutRejectsMismatchedBytes: the poisoning guard itself.
func TestCachePutRejectsMismatchedBytes(t *testing.T) {
	c := NewBlobCache()
	good := []byte("chunk-bytes")
	if !c.Put(cryptbox.Sum(good), good) {
		t.Fatal("valid chunk rejected")
	}
	if c.Put(cryptbox.Sum(good), []byte("other-bytes")) {
		t.Fatal("mismatched bytes accepted")
	}
	if st := c.Stats(); st.Stores != 1 || st.Blobs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPullConsistentLieDetectedAtLayer: a registry that rewrites a layer
// self-consistently (chunks match a forged transfer manifest) passes chunk
// verification but is caught by the layer digest from the signed image
// manifest — and the forged chunks in the cache are harmless because they
// are correctly addressed by their own content.
func TestPullConsistentLieDetectedAtLayer(t *testing.T) {
	f := newPullFixture(t)
	if !f.reg.TamperLayer(f.imgs[0].Manifest.LayerDigests[1], func(l *image.Layer) {
		l.Files[EntrypointPath] = []byte("BACKDOORED-BINARY")
	}) {
		t.Fatal("tamper hook missed layer")
	}
	e := f.engine(4, NewBlobCache())
	_, _, err := e.PullImage("svc/pull", "a")
	if !errors.Is(err, image.ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
	// The untampered sibling image still pulls clean through the same cache.
	img, _, err := e.PullImage("svc/pull", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Verify(); err != nil {
		t.Fatal(err)
	}
}

// blobSetFixture publishes a convergent-chunked payload (with a repeated
// block, so dedup is exercised) to a fresh registry, as a durable-store
// snapshot would.
func blobSetFixture(t *testing.T) (*registry.Registry, *transfer.Manifest, []byte) {
	t.Helper()
	reg := registry.New()
	block := make([]byte, 256)
	sim.NewRand(17).Read(block)
	payload := append(append(append([]byte(nil), block...), block...), bytes.Repeat([]byte("tail"), 64)...)
	lm, chunks, err := transfer.PackConvergent("snap/shard-0", payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutBlobSet(lm, chunks); err != nil {
		t.Fatal(err)
	}
	return reg, lm, payload
}

// TestPullBlobSetRoundTrip: a trusted manifest pulls back the exact payload
// through the verified chunk path, with stats accounted as one layer.
func TestPullBlobSetRoundTrip(t *testing.T) {
	reg, lm, payload := blobSetFixture(t)
	e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	e.Cache = NewBlobCache()
	e.PullWorkers = 4
	gots, pss, err := e.PullBlobSets([]*transfer.Manifest{lm}, []string{"snap/shard-0"})
	if err != nil {
		t.Fatal(err)
	}
	got, ps := gots[0], pss[0]
	if !bytes.Equal(got, payload) {
		t.Fatal("pulled payload differs")
	}
	if ps.Layers != 1 || ps.ChunksTotal != lm.Chunks() {
		t.Fatalf("stats = %+v", ps)
	}
	if ps.DedupHits == 0 {
		t.Fatalf("repeated block produced no dedup hits: %+v", ps)
	}
	if ps.SerialCycles == 0 || ps.CriticalCycles == 0 {
		t.Fatalf("no cycles charged: %+v", ps)
	}

	// Second pull rides the warm node cache: nothing crosses the network.
	gots, pss, err = e.PullBlobSets([]*transfer.Manifest{lm}, []string{"snap/shard-0"})
	if err != nil {
		t.Fatal(err)
	}
	got2, ps2 := gots[0], pss[0]
	if !bytes.Equal(got2, payload) {
		t.Fatal("warm pull payload differs")
	}
	if ps2.ChunksFetch != 0 || ps2.BytesFetched != 0 || ps2.CacheHits != ps2.UniqueChunks {
		t.Fatalf("warm pull fetched: %+v", ps2)
	}
}

// TestPullBlobSetTamperIsolation: one tampered chunk fails the pull without
// poisoning the cache; after the source heals, the retry fetches exactly
// the missing chunk.
func TestPullBlobSetTamperIsolation(t *testing.T) {
	reg, lm, payload := blobSetFixture(t)
	victim := lm.Leaves[1]
	orig, err := reg.Blob(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.TamperBlob(victim, func(b []byte) []byte { b[3] ^= 1; return b }) {
		t.Fatal("tamper hook missed blob")
	}
	e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	e.Cache = NewBlobCache()
	e.PullWorkers = 4
	if _, pss, err := e.PullBlobSets([]*transfer.Manifest{lm}, []string{"snap/shard-0"}); !errors.Is(err, ErrChunkVerify) {
		t.Fatalf("err = %v, want ErrChunkVerify", err)
	} else if ps := pss[0]; ps.ChunksFailed != 1 || ps.ChunksFetch != ps.UniqueChunks-1 {
		t.Fatalf("tampered pull: %+v", ps)
	}
	if !reg.RestoreBlob(victim, orig) {
		t.Fatal("restore failed")
	}
	gots, pss, err := e.PullBlobSets([]*transfer.Manifest{lm}, []string{"snap/shard-0"})
	if err != nil {
		t.Fatal(err)
	}
	got, ps := gots[0], pss[0]
	if !bytes.Equal(got, payload) {
		t.Fatal("resumed payload differs")
	}
	if ps.ChunksFetch != 1 || ps.CacheHits != ps.UniqueChunks-1 {
		t.Fatalf("resume fetched %d (cache hits %d), want exactly 1", ps.ChunksFetch, ps.CacheHits)
	}
}

// TestPullBlobSetStatsInvariantAcrossWorkers: blob-set pull metrics are
// topology, bit-identical across worker counts.
func TestPullBlobSetStatsInvariantAcrossWorkers(t *testing.T) {
	var first PullStats
	var payload []byte
	for wi, workers := range []int{1, 2, 4, 8} {
		reg, lm, want := blobSetFixture(t)
		e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
		e.Cache = NewBlobCache()
		e.PullWorkers = workers
		gots, pss, err := e.PullBlobSets([]*transfer.Manifest{lm}, []string{"snap/shard-0"})
		if err != nil {
			t.Fatal(err)
		}
		got, ps := gots[0], pss[0]
		if wi == 0 {
			first, payload = ps, want
			continue
		}
		if ps != first || !bytes.Equal(got, payload) {
			t.Fatalf("workers=%d: %+v vs %+v", workers, ps, first)
		}
	}
}

// sharedSets is four convergent blob sets built from 64-byte blocks that
// recur across sets (and once within a set), so which chunks a set finds
// cached depends on the sets pulled before it. Block f belongs to set 2
// alone, block e to set 3 alone, and block w to no set.
type sharedSets struct {
	reg      *registry.Registry
	lms      []*transfer.Manifest
	labels   []string
	payloads [][]byte
	blocks   map[byte][]byte
	leaf     map[byte]cryptbox.Digest
}

func newSharedSets(t *testing.T) *sharedSets {
	t.Helper()
	f := &sharedSets{reg: registry.New(), blocks: map[byte][]byte{}, leaf: map[byte]cryptbox.Digest{}}
	for i, name := range []byte("abcdefw") {
		b := make([]byte, 64)
		sim.NewRand(int64(40 + i)).Read(b)
		f.blocks[name] = b
	}
	for i, layout := range []string{"abc", "bd", "afaf", "ec"} {
		label := fmt.Sprintf("snap/shard-%d", i)
		lm, chunks, err := transfer.PackConvergent(label, f.payload(layout), 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.reg.PutBlobSet(lm, chunks); err != nil {
			t.Fatal(err)
		}
		for j, name := range []byte(layout) {
			f.leaf[name] = lm.Leaves[j]
		}
		f.lms = append(f.lms, lm)
		f.labels = append(f.labels, label)
		f.payloads = append(f.payloads, f.payload(layout))
	}
	return f
}

// payload concatenates the named blocks.
func (f *sharedSets) payload(layout string) []byte {
	var p []byte
	for _, name := range []byte(layout) {
		p = append(p, f.blocks[name]...)
	}
	return p
}

// TestPullBlobSetsMatchesSequentialPulls holds a multi-set pull to one
// single-set pull per manifest in set order: the same payloads and
// per-set stats (cache hits included, which depend on that order), the
// last set's stats as LastPullStats, and the same cache afterwards — on a
// cold, a warm and no node cache, at every worker count, and when a set's
// fetch fails part-way.
func TestPullBlobSetsMatchesSequentialPulls(t *testing.T) {
	type outcome struct {
		payloads [][]byte
		stats    []PullStats
		err      error
		last     PullStats
		cache    BlobCacheStats
		cached   map[cryptbox.Digest]bool
	}
	type puller func(e *Engine, lms []*transfer.Manifest, labels []string) ([][]byte, []PullStats, error)
	sequential := func(e *Engine, lms []*transfer.Manifest, labels []string) ([][]byte, []PullStats, error) {
		var payloads [][]byte
		var stats []PullStats
		for i := range lms {
			p, ps, err := e.PullBlobSets(lms[i:i+1], labels[i:i+1])
			payloads, stats = append(payloads, p[0]), append(stats, ps[0])
			if err != nil {
				return payloads, stats, err
			}
		}
		return payloads, stats, nil
	}
	together := func(e *Engine, lms []*transfer.Manifest, labels []string) ([][]byte, []PullStats, error) {
		return e.PullBlobSets(lms, labels)
	}
	for _, temp := range []string{"cold", "warm", "none"} {
		for _, tamper := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				f := newSharedSets(t)
				if tamper && !f.reg.TamperBlob(f.leaf['f'], func(b []byte) []byte { b[0] ^= 1; return b }) {
					t.Fatal("tamper hook missed blob")
				}
				run := func(pull puller) outcome {
					e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), f.reg, nil)
					e.PullWorkers = workers
					if temp != "none" {
						e.Cache = NewBlobCache()
					}
					if temp == "warm" {
						// A node that pulled a set of blocks d and w before.
						wm, chunks, err := transfer.PackConvergent("snap/warm", f.payload("dw"), 64)
						if err != nil {
							t.Fatal(err)
						}
						for j, d := range wm.Leaves {
							e.Cache.Put(d, chunks[j])
						}
					}
					var o outcome
					o.payloads, o.stats, o.err = pull(e, f.lms, f.labels)
					o.last = e.LastPullStats()
					if e.Cache != nil {
						o.cache = e.Cache.Stats()
						o.cached = map[cryptbox.Digest]bool{}
						for _, d := range f.leaf {
							o.cached[d] = e.Cache.Contains(d)
						}
					}
					return o
				}
				ref, got := run(sequential), run(together)
				where := fmt.Sprintf("cache=%s tamper=%v workers=%d", temp, tamper, workers)
				if tamper {
					if !errors.Is(got.err, ErrChunkVerify) || ref.err == nil || got.err.Error() != ref.err.Error() {
						t.Fatalf("%s: err = %v, sequential %v", where, got.err, ref.err)
					}
					if len(got.stats) != 3 || got.payloads[2] != nil || got.stats[2].ChunksFailed != 1 {
						t.Fatalf("%s: pull did not stop at set 2: %+v", where, got.stats)
					}
					if got.cached[f.leaf['e']] {
						t.Fatalf("%s: set 3's own chunk was fetched after set 2 failed", where)
					}
				} else if got.err != nil || ref.err != nil {
					t.Fatalf("%s: err = %v, sequential %v", where, got.err, ref.err)
				}
				if len(got.payloads) != len(ref.payloads) {
					t.Fatalf("%s: %d payloads, sequential %d", where, len(got.payloads), len(ref.payloads))
				}
				for i, p := range got.payloads {
					if !bytes.Equal(p, ref.payloads[i]) || (got.err == nil && !bytes.Equal(p, f.payloads[i])) {
						t.Fatalf("%s: set %d payload differs", where, i)
					}
				}
				if fmt.Sprint(got.stats) != fmt.Sprint(ref.stats) {
					t.Fatalf("%s: stats\n%+v\nsequential\n%+v", where, got.stats, ref.stats)
				}
				if got.last != ref.last || got.last != got.stats[len(got.stats)-1] {
					t.Fatalf("%s: LastPullStats %+v, sequential %+v", where, got.last, ref.last)
				}
				if got.cache != ref.cache || fmt.Sprint(got.cached) != fmt.Sprint(ref.cached) {
					t.Fatalf("%s: cache %+v, sequential %+v", where, got.cache, ref.cache)
				}
				if temp == "cold" && got.stats[1].CacheHits == 0 {
					t.Fatalf("%s: set 1 found none of set 0's chunks cached: %+v", where, got.stats[1])
				}
			}
		}
	}
}

// TestAssembleChargesMatchReference holds a blob-set pull's verification
// enclave to the charge sequence of the chunk receiver that reassembled
// pulls before transfer.Unpack did: the output buffer is allocated first,
// then each chunk in index order is allocated, staged (a write) and read
// back for verification and decryption, and its plaintext is written at
// the output's current end. assembleReference replays that sequence on a
// twin enclave of the same size.
func TestAssembleChargesMatchReference(t *testing.T) {
	big := make([]byte, 300<<10)
	sim.NewRand(23).Read(big[:len(big)/2])
	cases := []struct {
		name      string
		payload   []byte
		chunkSize int
	}{
		{"multi-chunk", big, 64 << 10},
		{"deduped", bytes.Repeat([]byte("0123456789abcdef"), 48), 64},
		{"empty", nil, 1024},
	}
	for _, c := range cases {
		reg := registry.New()
		lm, chunks, err := transfer.PackConvergent(c.name, c.payload, c.chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.PutBlobSet(lm, chunks); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
		gots, pss, err := e.PullBlobSets([]*transfer.Manifest{lm}, []string{c.name})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gots[0], c.payload) {
			t.Fatalf("%s: pulled payload differs", c.name)
		}
		cycles, faults := assembleReference(t, lm, chunks, c.payload)
		if pss[0].SerialCycles != cycles || pss[0].Faults != faults {
			t.Fatalf("%s: pull charged %d cycles, %d faults; reference %d, %d",
				c.name, pss[0].SerialCycles, pss[0].Faults, cycles, faults)
		}
	}
}

// assembleReference charges the reassembly of chunks (sealed, in index
// order) into payload on a fresh enclave sized as assembleBlobSet sizes
// its verification enclave, and returns the enclave's totals.
func assembleReference(t *testing.T, lm *transfer.Manifest, chunks [][]byte, payload []byte) (sim.Cycles, uint64) {
	t.Helper()
	var stored int64
	for _, c := range chunks {
		stored += int64(len(c))
	}
	size := uint64(stored) + uint64(lm.Size) + (1 << 20)
	size = (size + 4095) &^ 4095
	enc, arena, err := enclave.NewWorker(enclave.Config{}, size, "pull/reference")
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Destroy()
	mem := enc.Memory()
	outSize := int(lm.Size)
	if outSize == 0 {
		outSize = 1
	}
	outAddr := arena.Alloc(outSize)
	var out []byte
	for i, stored := range chunks {
		addr := arena.Alloc(len(stored))
		mem.AccessRange(addr, len(stored), true)
		mem.AccessRange(addr, len(stored), false)
		plain := payload[i*lm.ChunkSize : min((i+1)*lm.ChunkSize, len(payload))]
		if len(plain) > 0 {
			mem.AccessRange(outAddr+uint64(len(out)), len(plain), true)
		}
		out = append(out, plain...)
	}
	return mem.Cycles(), mem.Faults()
}
