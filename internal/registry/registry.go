// Package registry implements the image registry of the secure Docker
// workflow (paper Figure 2) as a content-addressed sealed blob store. The
// registry is untrusted: it stores secure images whose security-relevant
// content is protected by the FS protection file, so clients verify digests
// and manifest signatures after every pull instead of trusting the store.
//
// Storage is chunk-granular: every layer is encoded deterministically
// (image.Layer.Encode), packed into convergently sealed chunks
// (transfer.PackConvergent) and stored as blobs keyed by chunk content
// digest. Identical chunks — shared base layers across images, repeated
// content across layers — are stored once; the dedup is exact because
// convergent sealing makes identical content produce bit-identical sealed
// bytes. The registry holds the sealed chunks and the layer manifests
// that name them (per-chunk keys included — the registry ingests
// plaintext layers on push, so the sealing is the dedup mechanism, not a
// confidentiality boundary; secret image content is protected one level
// down by the FS protection file, per the paper's model).
//
// The package offers both an in-process store and an HTTP front end
// (net/http) with a matching client. The HTTP surface is chunk-granular
// too: image manifests, layer (transfer) manifests and individual blobs
// each have endpoints, with digest-conditional GET (ETag/If-None-Match)
// on the content-addressed ones so a caching puller revalidates for free.
package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/httpx"
	"securecloud/internal/image"
	"securecloud/internal/transfer"
)

// LayerChunkSize is the chunk granularity of layer storage. All images in
// one registry share it so identical layer content chunks identically.
const LayerChunkSize = 64 << 10

// Errors returned by the registry and client.
var (
	ErrNotFound = errors.New("registry: not found")
	ErrConflict = errors.New("registry: digest already bound to different content")
	ErrManifest = errors.New("registry: manifest inconsistent with layers")
)

// Stats summarizes the store: how much the chunk-granular dedup saved.
type Stats struct {
	Manifests int
	Layers    int
	Blobs     int
	BlobBytes int64
	// DedupHits counts chunk stores satisfied by an existing blob, across
	// images and layers.
	DedupHits uint64
}

// Registry is an in-memory content-addressed image store.
type Registry struct {
	mu        sync.RWMutex
	manifests map[string]image.Manifest             // "name:tag" -> manifest
	layers    map[cryptbox.Digest]transfer.Manifest // layer digest -> chunk manifest
	blobs     map[cryptbox.Digest][]byte            // chunk digest -> sealed chunk
	snapshots map[string]snapshotRecord             // snapshot name -> latest record
	// snapshotHist keeps every published record per name: the links of the
	// delta chains incremental publishers build (SnapshotAt serves them).
	snapshotHist map[string]map[uint64][]byte
	blobBytes    int64
	dedupHits    uint64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		manifests:    make(map[string]image.Manifest),
		layers:       make(map[cryptbox.Digest]transfer.Manifest),
		blobs:        make(map[cryptbox.Digest][]byte),
		snapshots:    make(map[string]snapshotRecord),
		snapshotHist: make(map[string]map[uint64][]byte),
	}
}

// Push stores an image chunk-granularly. An honest registry checks layer
// digests on ingest; the Tamper* methods below simulate a dishonest one.
// A manifest whose LayerDigests disagree with the carried layers — in
// count or content — is rejected before anything is indexed.
func (r *Registry) Push(img *image.Image) error {
	if len(img.Layers) != len(img.Manifest.LayerDigests) {
		return fmt.Errorf("%w: %d layers, %d digests", ErrManifest,
			len(img.Layers), len(img.Manifest.LayerDigests))
	}
	for i, l := range img.Layers {
		if l.Digest() != img.Manifest.LayerDigests[i] {
			return fmt.Errorf("%w: layer %d", image.ErrDigestMismatch, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, l := range img.Layers {
		d := img.Manifest.LayerDigests[i]
		if have, ok := r.layers[d]; ok {
			// Whole layer already chunked and stored (cross-image dedup).
			r.dedupHits += uint64(have.Chunks())
			continue
		}
		m, chunks, err := transfer.PackConvergent(d.String(), l.Encode(), LayerChunkSize)
		if err != nil {
			return err
		}
		for j, c := range chunks {
			if err := r.storeBlobLocked(m.Leaves[j], c); err != nil {
				return err
			}
		}
		r.layers[d] = *m
	}
	r.manifests[img.Ref()] = img.Manifest
	return nil
}

// storeBlobLocked inserts one sealed chunk under its content digest,
// counting dedup hits. Holding r.mu.
func (r *Registry) storeBlobLocked(d cryptbox.Digest, chunk []byte) error {
	if have, ok := r.blobs[d]; ok {
		if !bytes.Equal(have, chunk) {
			return fmt.Errorf("%w: %s", ErrConflict, d)
		}
		r.dedupHits++
		return nil
	}
	r.blobs[d] = append([]byte(nil), chunk...)
	r.blobBytes += int64(len(chunk))
	return nil
}

// Manifest returns the image manifest for a reference. Clients must verify
// its signature — the registry is untrusted.
func (r *Registry) Manifest(name, tag string) (image.Manifest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.manifests[name+":"+tag]
	if !ok {
		return image.Manifest{}, fmt.Errorf("%w: %s:%s", ErrNotFound, name, tag)
	}
	return m, nil
}

// LayerManifest returns the chunk manifest of one layer digest.
func (r *Registry) LayerManifest(d cryptbox.Digest) (*transfer.Manifest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.layers[d]
	if !ok {
		return nil, fmt.Errorf("%w: layer %s", ErrNotFound, d)
	}
	cp := m
	return &cp, nil
}

// Blob returns one sealed chunk by content digest.
func (r *Registry) Blob(d cryptbox.Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.blobs[d]
	if !ok {
		return nil, fmt.Errorf("%w: blob %s", ErrNotFound, d)
	}
	return append([]byte(nil), b...), nil
}

// Stats returns store-level counters.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Manifests: len(r.manifests),
		Layers:    len(r.layers),
		Blobs:     len(r.blobs),
		BlobBytes: r.blobBytes,
		DedupHits: r.dedupHits,
	}
}

// StatsName implements stats.Source.
func (r *Registry) StatsName() string { return "registry" }

// Snapshot implements stats.Source.
func (r *Registry) Snapshot() map[string]float64 {
	s := r.Stats()
	return map[string]float64{
		"manifests":  float64(s.Manifests),
		"layers":     float64(s.Layers),
		"blobs":      float64(s.Blobs),
		"blob_bytes": float64(s.BlobBytes),
		"dedup_hits": float64(s.DedupHits),
	}
}

// layerSnapshot is one layer's manifest plus its chunk slices, captured
// under the lock. Stored blobs are replaced, never mutated in place, so
// the slices stay valid (and immutable) after the lock is released.
type layerSnapshot struct {
	manifest transfer.Manifest
	chunks   [][]byte
}

// snapshotLayerLocked captures one layer's manifest and chunks.
// Holding at least r.mu.RLock.
func (r *Registry) snapshotLayerLocked(d cryptbox.Digest) (layerSnapshot, error) {
	m, ok := r.layers[d]
	if !ok {
		return layerSnapshot{}, fmt.Errorf("%w: layer %s", ErrNotFound, d)
	}
	s := layerSnapshot{manifest: m, chunks: make([][]byte, len(m.Leaves))}
	for i, leaf := range m.Leaves {
		b, ok := r.blobs[leaf]
		if !ok {
			return layerSnapshot{}, fmt.Errorf("%w: blob %s", ErrNotFound, leaf)
		}
		s.chunks[i] = b
	}
	return s, nil
}

// assemble decrypts and decompresses the snapshot into layer bytes — the
// expensive half of a pull, run outside the registry lock.
func (s layerSnapshot) assemble() ([]byte, error) {
	var buf bytes.Buffer
	err := transfer.Unpack(&s.manifest, cryptbox.Key{}, &buf, func(idx int) ([]byte, error) {
		return s.chunks[idx], nil
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Pull retrieves an image by reference, reassembling every layer from its
// chunks. Callers must img.Verify() — the registry is not trusted to
// return what was pushed. (The container engine's chunk-granular pull with
// caching lives in internal/container; Pull is the in-process whole-image
// path its tests compare against. The HTTP front end serves chunks only.)
// Only the map lookups run under the lock; the per-chunk decrypt and
// decompress work does not block concurrent pushes.
func (r *Registry) Pull(name, tag string) (*image.Image, error) {
	r.mu.RLock()
	m, ok := r.manifests[name+":"+tag]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s:%s", ErrNotFound, name, tag)
	}
	snaps := make([]layerSnapshot, len(m.LayerDigests))
	for i, d := range m.LayerDigests {
		s, err := r.snapshotLayerLocked(d)
		if err != nil {
			r.mu.RUnlock()
			return nil, err
		}
		snaps[i] = s
	}
	r.mu.RUnlock()

	img := &image.Image{Manifest: m}
	for _, s := range snaps {
		raw, err := s.assemble()
		if err != nil {
			return nil, err
		}
		l, err := image.DecodeLayer(raw)
		if err != nil {
			return nil, err
		}
		img.Layers = append(img.Layers, l)
	}
	return img, nil
}

// List returns all stored references.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.manifests))
	for ref := range r.manifests {
		out = append(out, ref)
	}
	return out
}

// TamperLayer overwrites the stored content behind a layer digest without
// updating the digest — what a malicious registry operator can do. The
// mutated layer is re-chunked and its manifest replaced, so the forgery is
// self-consistent at the transfer level; clients must detect it on Verify
// against the signed image manifest.
func (r *Registry) TamperLayer(d cryptbox.Digest, mutate func(*image.Layer)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.snapshotLayerLocked(d)
	if err != nil {
		return false
	}
	raw, err := s.assemble()
	if err != nil {
		return false
	}
	l, err := image.DecodeLayer(raw)
	if err != nil {
		return false
	}
	mutate(&l)
	m, chunks, err := transfer.PackConvergent(d.String(), l.Encode(), LayerChunkSize)
	if err != nil {
		return false
	}
	for j, c := range chunks {
		if err := r.storeBlobLocked(m.Leaves[j], c); err != nil {
			return false
		}
	}
	r.layers[d] = *m
	return true
}

// TamperBlob flips bytes inside one stored chunk without touching any
// manifest — the crudest dishonest-registry move. Pulling clients must
// reject exactly that chunk on digest verification.
func (r *Registry) TamperBlob(d cryptbox.Digest, mutate func([]byte) []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.blobs[d]
	if !ok {
		return false
	}
	nb := mutate(append([]byte(nil), b...))
	r.blobBytes += int64(len(nb) - len(b))
	r.blobs[d] = nb
	return true
}

// RestoreBlob re-binds a chunk digest to the given bytes if they match the
// digest — healing a tampered blob (e.g. re-fetched from an honest mirror).
func (r *Registry) RestoreBlob(d cryptbox.Digest, chunk []byte) bool {
	if cryptbox.Sum(chunk) != d {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.blobs[d]; ok {
		r.blobBytes += int64(len(chunk) - len(old))
	} else {
		r.blobBytes += int64(len(chunk))
	}
	r.blobs[d] = append([]byte(nil), chunk...)
	return true
}

// TamperManifest rewrites a stored manifest in place.
func (r *Registry) TamperManifest(ref string, mutate func(*image.Manifest)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.manifests[ref]
	if !ok {
		return false
	}
	mutate(&m)
	r.manifests[ref] = m
	return true
}

// ---- HTTP front end ----

// Handler returns an http.Handler exposing the registry. Images go in
// whole and come out chunk-granular: a puller fetches the signed manifest,
// each layer's chunk manifest and the chunks it lacks, verifying every
// digest itself (Client implements container.PullSource over these):
//
//	PUT  /v2/images/{name}/{tag}      (full image JSON — ingest path)
//	GET  /v2/manifests/{name}/{tag}   (image manifest JSON)
//	GET  /v2/layers/{digest}          (layer chunk manifest, binary, conditional)
//	GET  /v2/blobs/{digest}           (one sealed chunk, conditional)
//	GET  /v2/snapshots/{name}         (latest sealed snapshot record JSON)
//	GET  /v2/list
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	splitRef := func(w http.ResponseWriter, req *http.Request, prefix string) (name, tag string, ok bool) {
		// Image names may contain slashes (e.g. smartgrid/analytics); the
		// final path segment is the tag, everything before it the name.
		ref := strings.TrimPrefix(req.URL.Path, prefix)
		cut := strings.LastIndex(ref, "/")
		if cut <= 0 || cut == len(ref)-1 {
			http.Error(w, "want "+prefix+"{name}/{tag}", http.StatusBadRequest)
			return "", "", false
		}
		return ref[:cut], ref[cut+1:], true
	}
	mux.HandleFunc("/v2/images/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPut {
			httpx.MethodNotAllowed(w)
			return
		}
		name, tag, ok := splitRef(w, req, "/v2/images/")
		if !ok {
			return
		}
		body, err := io.ReadAll(io.LimitReader(req.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var img image.Image
		if err := json.Unmarshal(body, &img); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if img.Manifest.Name != name || img.Manifest.Tag != tag {
			http.Error(w, "manifest reference mismatch", http.StatusBadRequest)
			return
		}
		if err := r.Push(&img); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("/v2/manifests/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			httpx.MethodNotAllowed(w)
			return
		}
		name, tag, ok := splitRef(w, req, "/v2/manifests/")
		if !ok {
			return
		}
		m, err := r.Manifest(name, tag)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		httpx.WriteJSON(w, m)
	})
	mux.HandleFunc("/v2/layers/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			httpx.MethodNotAllowed(w)
			return
		}
		d, err := httpx.ParseDigest("registry", strings.TrimPrefix(req.URL.Path, "/v2/layers/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		httpx.WriteConditional(w, req, d, "application/octet-stream", func() ([]byte, error) {
			m, err := r.LayerManifest(d)
			if err != nil {
				return nil, err
			}
			return m.AppendBinary(nil), nil
		})
	})
	mux.HandleFunc("/v2/blobs/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			httpx.MethodNotAllowed(w)
			return
		}
		d, err := httpx.ParseDigest("registry", strings.TrimPrefix(req.URL.Path, "/v2/blobs/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		httpx.WriteConditional(w, req, d, "application/octet-stream", func() ([]byte, error) {
			return r.Blob(d)
		})
	})
	mux.HandleFunc("/v2/snapshots/", r.snapshotHandler)
	mux.HandleFunc("/v2/list", func(w http.ResponseWriter, req *http.Request) {
		httpx.WriteJSON(w, r.List())
	})
	return mux
}

// Client talks to a registry HTTP front end. It implements the same
// chunk-granular pull surface as the in-process Registry, so the container
// engine can pull through either.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: http.DefaultClient}
}

// Push uploads an image.
func (c *Client) Push(img *image.Image) error {
	body, err := json.Marshal(img)
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s/v2/images/%s/%s", c.BaseURL, img.Manifest.Name, img.Manifest.Tag)
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("registry: push failed: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// get fetches one URL, mapping 404 to ErrNotFound.
func (c *Client) get(url, what string) ([]byte, error) {
	resp, err := c.HTTP.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, what)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("registry: fetching %s: %s", what, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// Manifest fetches an image manifest. The caller must verify its signature.
func (c *Client) Manifest(name, tag string) (image.Manifest, error) {
	raw, err := c.get(fmt.Sprintf("%s/v2/manifests/%s/%s", c.BaseURL, name, tag), name+":"+tag)
	if err != nil {
		return image.Manifest{}, err
	}
	var m image.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return image.Manifest{}, err
	}
	return m, nil
}

// LayerManifest fetches, decodes and validates one layer's binary chunk
// manifest.
func (c *Client) LayerManifest(d cryptbox.Digest) (*transfer.Manifest, error) {
	raw, err := c.get(fmt.Sprintf("%s/v2/layers/%s", c.BaseURL, d), d.String())
	if err != nil {
		return nil, err
	}
	return transfer.DecodeManifest(raw)
}

// Blob fetches one sealed chunk by content digest.
func (c *Client) Blob(d cryptbox.Digest) ([]byte, error) {
	return c.get(fmt.Sprintf("%s/v2/blobs/%s", c.BaseURL, d), d.String())
}
