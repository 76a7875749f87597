// The chunk-granular verified pull: the container engine's side of the
// content-addressed sealed data plane. Where Registry.Pull reassembles a
// whole image inside the registry process, PullImage drives the pull from
// the node: it fetches the (untrusted) image and layer manifests, fans the
// unique chunk set out across workers, verifies every chunk against its
// content digest before it may enter the node-local BlobCache, and then
// reconstructs each layer inside a per-layer verification enclave whose
// simulated cycles are charged as transfer.Unpack fetches and writes.
//
// Topology vs execution: the chunk set, dedup and cache classification,
// and the per-layer enclaves are topology — pure functions of the image
// and the cache state. The worker count is execution only: it decides
// which goroutine fetches which chunk and assembles which layer, never
// what is fetched or charged. All PullStats fields are therefore
// bit-identical across worker counts.
package container

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/sim"
	"securecloud/internal/transfer"
)

// ErrChunkVerify marks a chunk whose bytes do not match their digest — a
// tampering or corrupting source. The chunk is rejected before it can
// reach the cache.
var ErrChunkVerify = errors.New("container: chunk failed digest verification")

// PullSource is the chunk-granular pull surface. Both the in-process
// registry and its HTTP client implement it.
type PullSource interface {
	// Manifest returns an image manifest. The puller verifies its
	// signature as part of image verification.
	Manifest(name, tag string) (image.Manifest, error)
	// LayerManifest returns the chunk manifest of one layer digest.
	LayerManifest(d cryptbox.Digest) (*transfer.Manifest, error)
	// Blob returns one sealed chunk by content digest.
	Blob(d cryptbox.Digest) ([]byte, error)
}

// BlobCacheStats are the cache's lifetime counters.
type BlobCacheStats struct {
	Hits   uint64 // pull classifications served from cache
	Misses uint64 // pull classifications that had to fetch
	Stores uint64 // verified chunks inserted
	Blobs  int
	Bytes  int64
}

// BlobCache is a node-local content-addressed chunk cache shared by the
// container engines on one node: the Nth replica of an image boots without
// refetching a single chunk. Only digest-verified chunks enter it, so the
// cache cannot be poisoned — a digest can never map to wrong bytes.
type BlobCache struct {
	mu     sync.RWMutex
	blobs  map[cryptbox.Digest][]byte
	bytes  int64
	hits   uint64
	misses uint64
	stores uint64
}

// NewBlobCache returns an empty cache.
func NewBlobCache() *BlobCache {
	return &BlobCache{blobs: make(map[cryptbox.Digest][]byte)}
}

// Lookup reports whether the cache holds d, counting a hit or miss. It is
// the classification step of a pull.
func (c *BlobCache) Lookup(d cryptbox.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.blobs[d]; ok {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Put inserts a chunk after verifying it against its digest. Returns false
// (and stores nothing) when the bytes do not match — the poisoning guard.
func (c *BlobCache) Put(d cryptbox.Digest, chunk []byte) bool {
	if cryptbox.Sum(chunk) != d {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.blobs[d]; ok {
		return true
	}
	c.blobs[d] = append([]byte(nil), chunk...)
	c.bytes += int64(len(chunk))
	c.stores++
	return true
}

// peek returns a cached chunk without touching the hit/miss counters (the
// assembly phase re-reads chunks the classification already accounted).
func (c *BlobCache) peek(d cryptbox.Digest) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.blobs[d]
	return b, ok
}

// Contains reports whether the cache holds d without touching the hit/miss
// counters — the placement layer's warm-chunk probe (scoring a candidate
// node must not perturb its pull accounting).
func (c *BlobCache) Contains(d cryptbox.Digest) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.blobs[d]
	return ok
}

// Audit re-verifies every cached chunk against its digest and returns the
// number of mismatches. Put verifies before storing, so a nonzero count
// means the poisoning guard itself is broken — the bench gate pins this
// to zero for the byzantine-registry scenario.
func (c *BlobCache) Audit() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bad := 0
	for d, b := range c.blobs {
		if cryptbox.Sum(b) != d {
			bad++
		}
	}
	return bad
}

// Stats returns the cache counters.
func (c *BlobCache) Stats() BlobCacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return BlobCacheStats{
		Hits: c.hits, Misses: c.misses, Stores: c.stores,
		Blobs: len(c.blobs), Bytes: c.bytes,
	}
}

// StatsName implements stats.Source.
func (c *BlobCache) StatsName() string { return "blobcache" }

// Snapshot implements stats.Source.
func (c *BlobCache) Snapshot() map[string]float64 {
	s := c.Stats()
	return map[string]float64{
		"hits":   float64(s.Hits),
		"misses": float64(s.Misses),
		"stores": float64(s.Stores),
		"blobs":  float64(s.Blobs),
		"bytes":  float64(s.Bytes),
	}
}

// PullStats records one pull. Every field is deterministic: independent of
// worker count, chunk arrival order and host timing.
type PullStats struct {
	Layers       int
	ChunksTotal  int // chunk references across all layers
	UniqueChunks int // distinct content digests among them
	DedupHits    int // references satisfied by another reference in this image
	CacheHits    int // unique digests already in the node cache
	ChunksFetch  int // unique digests fetched from the source
	ChunksFailed int // fetched chunks rejected (verification or source error)
	BytesFetched int64
	// SerialCycles sums the per-layer verification enclaves' cycles; the
	// critical path is the slowest layer — the shard-per-core decomposition
	// the rest of the repo reports.
	SerialCycles   sim.Cycles
	CriticalCycles sim.Cycles
	Faults         uint64
}

// pullWorkers resolves the engine's fan-out width (execution only).
func (e *Engine) pullWorkers() int {
	if e.PullWorkers > 0 {
		return e.PullWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// PullImage pulls name:tag chunk-granularly through the node cache,
// verifies every chunk and the reassembled image, and returns both. On
// chunk failures it returns an error after caching every chunk that did
// verify, so a retry resumes the partial pull instead of starting over.
func (e *Engine) PullImage(name, tag string) (*image.Image, PullStats, error) {
	var ps PullStats
	m, err := e.Registry.Manifest(name, tag)
	if err != nil {
		return nil, ps, err
	}
	lms := make([]*transfer.Manifest, len(m.LayerDigests))
	for i, d := range m.LayerDigests {
		lm, err := e.Registry.LayerManifest(d)
		if err != nil {
			return nil, ps, err
		}
		if err := lm.Validate(); err != nil {
			return nil, ps, err
		}
		lms[i] = lm
		ps.ChunksTotal += lm.Chunks()
	}
	ps.Layers = len(lms)

	unique := uniqueLeaves(lms)
	ps.UniqueChunks = len(unique)
	ps.DedupHits = ps.ChunksTotal - ps.UniqueChunks

	cache := e.Cache
	if cache == nil {
		// No node cache configured: a pull-private one keeps the logic
		// uniform (and still dedups within this pull).
		cache = NewBlobCache()
	}
	if err := e.classifyAndFetch(name+":"+tag, cache, unique, &ps); err != nil {
		e.recordPull(ps)
		return nil, ps, err
	}

	// Assembly fan-out: one verification enclave per layer (topology), so
	// each layer's simulated cycle total is independent of which worker
	// runs it and of the other layers.
	layers := make([]image.Layer, len(lms))
	layerCycles := make([]sim.Cycles, len(lms))
	layerFaults := make([]uint64, len(lms))
	asmErrs := make([]error, len(lms))
	sim.ParallelFor(len(lms), e.pullWorkers(), func(i int) {
		layers[i], layerCycles[i], layerFaults[i], asmErrs[i] =
			e.assembleLayer(m.LayerDigests[i], lms[i], cache)
	})
	var firstErr error
	for i, err := range asmErrs {
		ps.SerialCycles += layerCycles[i]
		ps.Faults += layerFaults[i]
		if layerCycles[i] > ps.CriticalCycles {
			ps.CriticalCycles = layerCycles[i]
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("container: pull %s:%s layer %d: %w", name, tag, i, err)
		}
	}
	if firstErr != nil {
		e.recordPull(ps)
		return nil, ps, firstErr
	}

	img := &image.Image{Manifest: m, Layers: layers}
	if err := img.Verify(); err != nil {
		e.recordPull(ps)
		return nil, ps, fmt.Errorf("container: pulled image failed verification: %w", err)
	}
	e.recordPull(ps)
	return img, ps, nil
}

// uniqueLeaves returns the distinct chunk digests of lms in
// first-occurrence order (deterministic).
func uniqueLeaves(lms []*transfer.Manifest) []cryptbox.Digest {
	var total int
	for _, lm := range lms {
		total += lm.Chunks()
	}
	seen := make(map[cryptbox.Digest]struct{}, total)
	unique := make([]cryptbox.Digest, 0, total)
	for _, lm := range lms {
		for _, leaf := range lm.Leaves {
			if _, dup := seen[leaf]; dup {
				continue
			}
			seen[leaf] = struct{}{}
			unique = append(unique, leaf)
		}
	}
	return unique
}

// classifyAndFetch runs the cache classification and verified fetch fan-out
// for one unique chunk set: every digest is looked up once, every missing
// digest fetched exactly once, and nothing enters the cache unverified.
// Failures reject only their own chunk, so a retry resumes the partial
// pull. Updates CacheHits/ChunksFetch/ChunksFailed/BytesFetched in ps.
func (e *Engine) classifyAndFetch(label string, cache *BlobCache, unique []cryptbox.Digest, ps *PullStats) error {
	missing := make([]cryptbox.Digest, 0, len(unique))
	for _, d := range unique {
		if cache.Lookup(d) {
			ps.CacheHits++
		} else {
			missing = append(missing, d)
		}
	}
	fetchErrs := make([]error, len(missing))
	fetched := make([]int64, len(missing))
	sim.ParallelFor(len(missing), e.pullWorkers(), func(i int) {
		d := missing[i]
		b, err := e.Registry.Blob(d)
		if err != nil {
			fetchErrs[i] = err
			return
		}
		if !cache.Put(d, b) {
			fetchErrs[i] = fmt.Errorf("%w: %s", ErrChunkVerify, d)
			return
		}
		fetched[i] = int64(len(b))
	})
	var firstErr error
	for i, err := range fetchErrs {
		if err != nil {
			ps.ChunksFailed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ps.ChunksFetch++
		ps.BytesFetched += fetched[i]
	}
	if ps.ChunksFailed > 0 {
		return fmt.Errorf("container: pull %s: %d of %d chunks failed, %d verified and cached (resume by retrying): %w",
			label, ps.ChunksFailed, len(missing), ps.ChunksFetch, firstErr)
	}
	return nil
}

// assembleBlobSet reassembles one packed blob set from cached chunks inside
// a fresh verification enclave, charging the staging, verification and
// decompression costs to its simulated memory in chunk-index order:
// transfer.Unpack re-verifies every chunk against the manifest leaf before
// opening it.
func (e *Engine) assembleBlobSet(label string, lm *transfer.Manifest, cache *BlobCache) ([]byte, sim.Cycles, uint64, error) {
	chunks := make([][]byte, len(lm.Leaves))
	var stored int64
	for i, leaf := range lm.Leaves {
		b, ok := cache.peek(leaf)
		if !ok {
			return nil, 0, 0, fmt.Errorf("%w: chunk %s evicted mid-pull", ErrChunkVerify, leaf)
		}
		chunks[i] = b
		stored += int64(len(b))
	}
	size := uint64(stored) + uint64(lm.Size) + (1 << 20)
	size = (size + 4095) &^ 4095
	enc, arena, err := enclave.NewWorker(enclave.Config{}, size, "pull/"+label)
	if err != nil {
		return nil, 0, 0, err
	}
	defer enc.Destroy()
	mem := enc.Memory()
	out := &enclaveOutput{
		mem:  mem,
		addr: arena.Alloc(int(max(lm.Size, 1))),
		// Cap the upfront reservation: a forged Size must not reserve
		// memory the (digest-verified) chunks never deliver; growth beyond
		// the cap is paid only as real data decompresses.
		buf: make([]byte, 0, min(lm.Size, 16<<20)),
	}
	err = transfer.Unpack(lm, cryptbox.Key{}, out, func(idx int) ([]byte, error) {
		b := chunks[idx]
		// Stage the ciphertext into the enclave, then read it back for
		// verification and decryption.
		addr := arena.Alloc(len(b))
		mem.AccessRange(addr, len(b), true)
		mem.AccessRange(addr, len(b), false)
		return b, nil
	})
	if err != nil {
		return nil, mem.Cycles(), mem.Faults(), err
	}
	return out.buf, mem.Cycles(), mem.Faults(), nil
}

// enclaveOutput collects a reassembled payload, charging each write to the
// enclave's output buffer at addr.
type enclaveOutput struct {
	mem  *enclave.Memory
	addr uint64
	buf  []byte
}

func (o *enclaveOutput) Write(p []byte) (int, error) {
	if len(p) > 0 {
		o.mem.AccessRange(o.addr+uint64(len(o.buf)), len(p), true)
	}
	o.buf = append(o.buf, p...)
	return len(p), nil
}

// assembleLayer reconstructs one layer through assembleBlobSet and checks
// the decoded layer against the trusted digest from the signed image
// manifest.
func (e *Engine) assembleLayer(want cryptbox.Digest, lm *transfer.Manifest, cache *BlobCache) (image.Layer, sim.Cycles, uint64, error) {
	raw, cycles, faults, err := e.assembleBlobSet(want.String(), lm, cache)
	if err != nil {
		return image.Layer{}, cycles, faults, err
	}
	l, err := image.DecodeLayer(raw)
	if err != nil {
		return image.Layer{}, cycles, faults, err
	}
	if l.Digest() != want {
		return image.Layer{}, cycles, faults,
			fmt.Errorf("%w: layer digest mismatch", image.ErrDigestMismatch)
	}
	return l, cycles, faults, nil
}

// PullBlobSets pulls packed blob sets — shard snapshots, anything
// published through Registry.PutBlobSet — through the node cache and
// reassembles their payloads. Each manifest must come from a trusted
// channel (for snapshots: sealed under the service key); the pull verifies
// every chunk against its manifest's content digests, isolates tampered
// chunks, and warms the cache exactly like an image pull.
//
// The result is what one single-set pull per manifest, in set order, would
// give:
//   - each set's chunks are classified against the cache and fetched in
//     set order, so a chunk an earlier set fetched is a cache hit for a
//     later one and every set's CacheHits and ChunksFetch are as if it
//     were pulled alone, after the sets before it;
//   - fetching stops at the first set whose manifest or fetch fails;
//   - the sets fetched are then assembled in parallel, each in its own
//     verification enclave, so a set's cycles depend neither on the other
//     sets nor on the worker count;
//   - each set's stats are recorded in set order, so LastPullStats is the
//     last set's.
//
// labels[i] names set i in errors and in its verification enclave. It
// returns one payload and one PullStats per set. On error, both slices end
// at the first set that failed — the one err names — whose payload is nil.
func (e *Engine) PullBlobSets(lms []*transfer.Manifest, labels []string) ([][]byte, []PullStats, error) {
	sets := make([]blobSetPull, 0, len(lms))
	for i, lm := range lms {
		s := e.fetchBlobSet(lm, labels[i])
		sets = append(sets, s)
		if s.err != nil {
			break
		}
	}
	sim.ParallelFor(len(sets), e.pullWorkers(), func(i int) {
		s := &sets[i]
		if s.err != nil {
			return
		}
		raw, cycles, faults, err := e.assembleBlobSet(labels[i], lms[i], s.cache)
		s.raw = raw
		s.ps.SerialCycles, s.ps.CriticalCycles, s.ps.Faults = cycles, cycles, faults
		if err != nil {
			s.err = fmt.Errorf("container: pull %s: %w", labels[i], err)
		}
	})
	payloads := make([][]byte, len(sets))
	stats := make([]PullStats, len(sets))
	for i, s := range sets {
		if s.cache != nil { // a manifest that failed validation pulled nothing
			e.recordPull(s.ps)
		}
		payloads[i], stats[i] = s.raw, s.ps
		if s.err != nil {
			return payloads[:i+1], stats[:i+1], s.err
		}
	}
	return payloads, stats, nil
}

// blobSetPull is one set's progress through PullBlobSets.
type blobSetPull struct {
	ps    PullStats
	cache *BlobCache // nil when the manifest failed validation
	raw   []byte
	err   error
}

// fetchBlobSet validates one set's manifest, then classifies and fetches
// its unique chunks through the node cache — a pull-private one when the
// engine has none, as in PullImage.
func (e *Engine) fetchBlobSet(lm *transfer.Manifest, label string) blobSetPull {
	var s blobSetPull
	if s.err = lm.Validate(); s.err != nil {
		return s
	}
	unique := uniqueLeaves([]*transfer.Manifest{lm})
	s.ps.Layers = 1
	s.ps.ChunksTotal = lm.Chunks()
	s.ps.UniqueChunks = len(unique)
	s.ps.DedupHits = s.ps.ChunksTotal - s.ps.UniqueChunks
	s.cache = e.Cache
	if s.cache == nil {
		s.cache = NewBlobCache()
	}
	s.err = e.classifyAndFetch(label, s.cache, unique, &s.ps)
	return s
}

// recordPull remembers the engine's most recent pull for inspection.
func (e *Engine) recordPull(ps PullStats) {
	e.mu.Lock()
	e.lastPull = ps
	e.mu.Unlock()
}

// LastPullStats returns the stats of the engine's most recent pull.
func (e *Engine) LastPullStats() PullStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastPull
}
