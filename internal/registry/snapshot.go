// The snapshot surface: the registry as the durable home of sealed state
// snapshots. A durable store publishes each shard snapshot as a
// content-addressed blob set (the chunks of a transfer.PackConvergent run)
// plus one small sealed manifest record under a stable name. The chunks
// land in the same blob namespace as image layers, so successive snapshots
// of mostly-unchanged state dedup chunk-for-chunk against their
// predecessors — the registry stores deltas without knowing it — and a
// publisher that remembers its previous pack sends the unchanged chunks as
// references instead of bytes (PutBlobSet's nil chunks). The sealed
// manifest record is opaque to the registry: what it names, and under which
// key it opens, is the publishing service's business. The registry only
// enforces ordering — a snapshot's sequence number must grow, so a replayed
// or lagging publisher cannot roll a name back to older state.
package registry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"securecloud/internal/cryptbox"
	"securecloud/internal/httpx"
	"securecloud/internal/transfer"
)

// snapshotRecord is the latest published snapshot under one name.
type snapshotRecord struct {
	Seq    uint64 `json:"seq"`
	Sealed []byte `json:"sealed"`
}

// PutBlobSet stores the chunks of a packed blob set under their manifest's
// leaf digests — the push half of the chunk-granular pull path, reusable by
// anything that packs with transfer.PackConvergent. Chunks already present
// (earlier snapshots, image layers) count as dedup hits; the return value
// is how many chunks were newly stored, so publishers can see their delta.
//
// A nil chunk references the blob already held under its leaf — what
// transfer.PackConvergentMemo emits for a chunk it did not re-seal — and
// counts as a dedup hit. Every reference is checked before anything is
// stored: a leaf not held fails with ErrNotFound, and a held blob whose
// bytes no longer hash to its leaf (a damaged copy) with ErrConflict, the
// error re-sending the intact chunk would get. Either way the call stores
// nothing.
func (r *Registry) PutBlobSet(m *transfer.Manifest, chunks [][]byte) (stored int, err error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if len(chunks) != len(m.Leaves) {
		return 0, fmt.Errorf("%w: %d chunks, %d leaves", ErrManifest, len(chunks), len(m.Leaves))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range chunks {
		if c != nil {
			continue
		}
		have, ok := r.blobs[m.Leaves[i]]
		if !ok {
			return 0, fmt.Errorf("%w: referenced blob %s", ErrNotFound, m.Leaves[i])
		}
		if cryptbox.Sum(have) != m.Leaves[i] {
			return 0, fmt.Errorf("%w: held blob %s no longer matches its digest", ErrConflict, m.Leaves[i])
		}
	}
	for i, c := range chunks {
		if c == nil {
			r.dedupHits++
			continue
		}
		_, had := r.blobs[m.Leaves[i]]
		if err := r.storeBlobLocked(m.Leaves[i], c); err != nil {
			return stored, err
		}
		if !had {
			stored++
		}
	}
	return stored, nil
}

// PublishSnapshot binds name to a new sealed snapshot record. Sequence
// numbers must strictly increase per name — the rollback guard. Earlier
// records stay retrievable through SnapshotAt: they are the links of the
// delta chains incremental snapshots publish.
func (r *Registry) PublishSnapshot(name string, seq uint64, sealed []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.snapshots[name]; ok && seq <= have.Seq {
		return fmt.Errorf("%w: snapshot %s seq %d not after %d", ErrConflict, name, seq, have.Seq)
	}
	cp := append([]byte(nil), sealed...)
	r.snapshots[name] = snapshotRecord{Seq: seq, Sealed: cp}
	hist := r.snapshotHist[name]
	if hist == nil {
		hist = make(map[uint64][]byte)
		r.snapshotHist[name] = hist
	}
	hist[seq] = cp
	return nil
}

// SnapshotAt returns the sealed snapshot record published under name at
// exactly seq — the chain-walk lookup for delta recovery.
func (r *Registry) SnapshotAt(name string, seq uint64) (sealed []byte, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.snapshotHist[name][seq]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), rec...), true
}

// LatestSnapshot returns the newest sealed snapshot record under name.
func (r *Registry) LatestSnapshot(name string) (seq uint64, sealed []byte, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.snapshots[name]
	if !ok {
		return 0, nil, false
	}
	return rec.Seq, append([]byte(nil), rec.Sealed...), true
}

// Snapshots returns how many snapshot names are bound.
func (r *Registry) Snapshots() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.snapshots)
}

// snapshotHandler serves GET /v2/snapshots/{name} (names may contain
// slashes) as a JSON snapshot record — the latest by default, or the
// historical record at ?seq=N for chain walks.
func (r *Registry) snapshotHandler(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpx.MethodNotAllowed(w)
		return
	}
	name := strings.TrimPrefix(req.URL.Path, "/v2/snapshots/")
	if name == "" {
		http.Error(w, "want /v2/snapshots/{name}[?seq=N]", http.StatusBadRequest)
		return
	}
	if q := req.URL.Query().Get("seq"); q != "" {
		seq, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "seq must be an unsigned integer", http.StatusBadRequest)
			return
		}
		sealed, ok := r.SnapshotAt(name, seq)
		if !ok {
			http.Error(w, fmt.Sprintf("%v: snapshot %s seq %d", ErrNotFound, name, seq), http.StatusNotFound)
			return
		}
		httpx.WriteJSON(w, snapshotRecord{Seq: seq, Sealed: sealed})
		return
	}
	seq, sealed, ok := r.LatestSnapshot(name)
	if !ok {
		http.Error(w, fmt.Sprintf("%v: snapshot %s", ErrNotFound, name), http.StatusNotFound)
		return
	}
	httpx.WriteJSON(w, snapshotRecord{Seq: seq, Sealed: sealed})
}

// LatestSnapshot mirrors Registry.LatestSnapshot over HTTP.
func (c *Client) LatestSnapshot(name string) (seq uint64, sealed []byte, ok bool) {
	raw, err := c.get(fmt.Sprintf("%s/v2/snapshots/%s", c.BaseURL, name), "snapshot "+name)
	if err != nil {
		return 0, nil, false
	}
	var rec snapshotRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return 0, nil, false
	}
	return rec.Seq, rec.Sealed, true
}

// SnapshotAt mirrors Registry.SnapshotAt over HTTP (?seq=N).
func (c *Client) SnapshotAt(name string, seq uint64) (sealed []byte, ok bool) {
	raw, err := c.get(fmt.Sprintf("%s/v2/snapshots/%s?seq=%d", c.BaseURL, name, seq),
		fmt.Sprintf("snapshot %s seq %d", name, seq))
	if err != nil {
		return nil, false
	}
	var rec snapshotRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, false
	}
	return rec.Sealed, true
}
