// Package fsshield implements SCONE's protected file system layer as
// described in the SecureCloud paper (§V-A): every protected file is split
// into chunks, each chunk is encrypted and authenticated, and an "FS
// protection file" records the message authentication codes of all chunks
// together with the per-file encryption keys. The protection file itself is
// then sealed (Seal/OpenSealed) and embedded in the image, whose signed
// manifest (image.Manifest) authenticates it.
//
// The authenticated-data layout defends against the full untrusted-storage
// threat model: chunk substitution, reordering, truncation, extension,
// cross-file splicing and rollback to stale chunk versions are all detected,
// because each chunk's MAC is bound to (path, chunk index, chunk count,
// file version) and pinned in the protection file.
package fsshield

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"securecloud/internal/cryptbox"
)

// DefaultChunkSize is the protection granularity. SCONE shields file I/O at
// block granularity; 64 KiB balances MAC-table size against write
// amplification.
const DefaultChunkSize = 64 << 10

// Mode selects per-file protection.
type Mode int

const (
	// ModeEncrypted provides confidentiality + integrity (AES-GCM).
	ModeEncrypted Mode = iota
	// ModeIntegrityOnly provides integrity only; contents stay readable so
	// end users can customise the image before sealing it.
	ModeIntegrityOnly
)

func (m Mode) String() string {
	if m == ModeEncrypted {
		return "encrypted"
	}
	return "integrity-only"
}

// Errors reported by the shield.
var (
	ErrTampered  = errors.New("fsshield: integrity check failed")
	ErrNotFound  = errors.New("fsshield: file not in protection file")
	ErrShortRead = errors.New("fsshield: chunk missing or truncated")
)

// FileEntry is the protection record of one file.
type FileEntry struct {
	Path    string                   `json:"path"`
	Mode    Mode                     `json:"mode"`
	Size    int64                    `json:"size"`
	Version uint64                   `json:"version"`
	Key     cryptbox.Key             `json:"key"`
	MACs    [][cryptbox.MACSize]byte `json:"macs"`
}

// ProtectionFile is the FS protection file: the authoritative map from
// paths to chunk MACs and keys. Access to it is what gates access to the
// protected file system.
type ProtectionFile struct {
	ChunkSize int                   `json:"chunk_size"`
	Files     map[string]*FileEntry `json:"files"`
}

// NewProtectionFile returns an empty protection file.
func NewProtectionFile(chunkSize int) *ProtectionFile {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ProtectionFile{ChunkSize: chunkSize, Files: make(map[string]*FileEntry)}
}

// Paths returns the protected paths in sorted order. The slice is freshly
// built on every call (unlike the pre-fix FS.Blobs, it never aliased
// internal state — audited alongside that fix).
func (pf *ProtectionFile) Paths() []string {
	out := make([]string, 0, len(pf.Files))
	for p := range pf.Files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Marshal encodes the protection file.
func (pf *ProtectionFile) Marshal() ([]byte, error) { return json.Marshal(pf) }

// Unmarshal decodes a protection file.
func Unmarshal(b []byte) (*ProtectionFile, error) {
	var pf ProtectionFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, fmt.Errorf("fsshield: decoding protection file: %w", err)
	}
	if pf.Files == nil {
		pf.Files = make(map[string]*FileEntry)
	}
	return &pf, nil
}

// Seal encrypts the protection file under key (the confidential-image
// flow). The returned blob is what gets added to the image.
func (pf *ProtectionFile) Seal(key cryptbox.Key) ([]byte, error) {
	raw, err := pf.Marshal()
	if err != nil {
		return nil, err
	}
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	return box.Seal(raw, []byte("fs-protection-file"))
}

// OpenSealed decrypts a blob produced by Seal.
func OpenSealed(blob []byte, key cryptbox.Key) (*ProtectionFile, error) {
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	raw, err := box.Open(blob, []byte("fs-protection-file"))
	if err != nil {
		return nil, fmt.Errorf("fsshield: %w", ErrTampered)
	}
	return Unmarshal(raw)
}

// chunkAAD binds a ciphertext chunk to its position and file version.
func chunkAAD(path string, version uint64, idx, total int) []byte {
	return []byte(fmt.Sprintf("%s|v%d|%d/%d", path, version, idx, total))
}

// macChunk computes the chunk MAC over stored||aad in a pooled scratch
// buffer — the per-chunk concatenation sits on the data plane's hot path
// (every protected read of every container boot), so it must not allocate.
func macChunk(key cryptbox.Key, stored, aad []byte) [cryptbox.MACSize]byte {
	buf := cryptbox.GetScratch()
	*buf = append(append(*buf, stored...), aad...)
	tag := cryptbox.MAC(key, *buf)
	cryptbox.PutScratch(buf)
	return tag
}

// verifyChunkMAC is the verifying counterpart of macChunk.
func verifyChunkMAC(key cryptbox.Key, stored, aad []byte, tag [cryptbox.MACSize]byte) bool {
	buf := cryptbox.GetScratch()
	*buf = append(append(*buf, stored...), aad...)
	ok := cryptbox.VerifyMAC(key, *buf, tag)
	cryptbox.PutScratch(buf)
	return ok
}

// FS is a protected file system: ciphertext blobs plus the protection file
// that authenticates them. Blobs live on untrusted storage (the image
// layers, a host volume); the protection file is the trusted root.
type FS struct {
	pf    *ProtectionFile
	blobs map[string][][]byte // path -> ciphertext chunks
}

// NewFS returns an empty protected file system with the given chunk size.
func NewFS(chunkSize int) *FS {
	return &FS{pf: NewProtectionFile(chunkSize), blobs: make(map[string][][]byte)}
}

// OpenFS binds an existing protection file to its ciphertext blobs
// (e.g. after pulling an image: blobs from the layers, pf from the SCF).
func OpenFS(pf *ProtectionFile, blobs map[string][][]byte) *FS {
	if blobs == nil {
		blobs = make(map[string][][]byte)
	}
	return &FS{pf: pf, blobs: blobs}
}

// ProtectionFile returns the trusted protection records.
func (fs *FS) ProtectionFile() *ProtectionFile { return fs.pf }

// Blobs returns a deep copy of the ciphertext chunks (what an image build
// publishes). It must never return the live map: a caller holding it could
// alias and mutate sealed chunk storage underneath the protection file,
// turning every later ReadFile into a spurious ErrTampered — or worse,
// silently corrupting an integrity-only file before it is sealed. Tamper
// simulation in tests goes through the internal field on purpose.
func (fs *FS) Blobs() map[string][][]byte {
	out := make(map[string][][]byte, len(fs.blobs))
	for path, chunks := range fs.blobs {
		cp := make([][]byte, len(chunks))
		for i, c := range chunks {
			cp[i] = append([]byte(nil), c...)
		}
		out[path] = cp
	}
	return out
}

// WriteFile protects data under path with the given mode, deriving the
// per-file key from rootKey. Rewriting a path bumps its version so stale
// chunks from the previous version no longer verify (anti-rollback).
func (fs *FS) WriteFile(path string, data []byte, mode Mode, rootKey cryptbox.Key) error {
	key, err := cryptbox.DeriveKey(rootKey, "file:"+path)
	if err != nil {
		return err
	}
	version := uint64(1)
	if old, ok := fs.pf.Files[path]; ok {
		version = old.Version + 1
	}
	cs := fs.pf.ChunkSize
	total := (len(data) + cs - 1) / cs
	if total == 0 {
		total = 1
	}
	entry := &FileEntry{
		Path: path, Mode: mode, Size: int64(len(data)), Version: version, Key: key,
		MACs: make([][cryptbox.MACSize]byte, 0, total),
	}
	chunks := make([][]byte, 0, total)
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return err
	}
	for i := 0; i < total; i++ {
		lo := i * cs
		hi := lo + cs
		if hi > len(data) {
			hi = len(data)
		}
		plain := data[lo:hi]
		var stored []byte
		if mode == ModeEncrypted {
			stored, err = box.Seal(plain, chunkAAD(path, version, i, total))
			if err != nil {
				return err
			}
		} else {
			stored = append([]byte(nil), plain...)
		}
		entry.MACs = append(entry.MACs, macChunk(key, stored, chunkAAD(path, version, i, total)))
		chunks = append(chunks, stored)
	}
	fs.pf.Files[path] = entry
	fs.blobs[path] = chunks
	return nil
}

// ReadFile verifies and (if needed) decrypts the whole file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	entry, ok := fs.pf.Files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	chunks, ok := fs.blobs[path]
	if !ok || len(chunks) != len(entry.MACs) {
		return nil, fmt.Errorf("%w: %s has %d of %d chunks", ErrShortRead, path, len(chunks), len(entry.MACs))
	}
	box, err := cryptbox.NewBox(entry.Key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, entry.Size)
	for i, stored := range chunks {
		aad := chunkAAD(path, entry.Version, i, len(chunks))
		if !verifyChunkMAC(entry.Key, stored, aad, entry.MACs[i]) {
			return nil, fmt.Errorf("%w: %s chunk %d", ErrTampered, path, i)
		}
		if entry.Mode == ModeEncrypted {
			plain, err := box.Open(stored, aad)
			if err != nil {
				return nil, fmt.Errorf("%w: %s chunk %d", ErrTampered, path, i)
			}
			out = append(out, plain...)
		} else {
			out = append(out, stored...)
		}
	}
	if int64(len(out)) != entry.Size {
		return nil, fmt.Errorf("%w: %s decodes to %d bytes, protection file says %d",
			ErrTampered, path, len(out), entry.Size)
	}
	return out, nil
}

// ReadChunk verifies and decrypts a single chunk (random access I/O).
func (fs *FS) ReadChunk(path string, idx int) ([]byte, error) {
	entry, ok := fs.pf.Files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	chunks := fs.blobs[path]
	if idx < 0 || idx >= len(entry.MACs) || idx >= len(chunks) {
		return nil, fmt.Errorf("%w: %s chunk %d", ErrShortRead, path, idx)
	}
	aad := chunkAAD(path, entry.Version, idx, len(entry.MACs))
	stored := chunks[idx]
	if !verifyChunkMAC(entry.Key, stored, aad, entry.MACs[idx]) {
		return nil, fmt.Errorf("%w: %s chunk %d", ErrTampered, path, idx)
	}
	if entry.Mode == ModeEncrypted {
		box, err := cryptbox.NewBox(entry.Key)
		if err != nil {
			return nil, err
		}
		plain, err := box.Open(stored, aad)
		if err != nil {
			return nil, fmt.Errorf("%w: %s chunk %d", ErrTampered, path, idx)
		}
		return plain, nil
	}
	return append([]byte(nil), stored...), nil
}

// Remove drops a path from both the protection file and the blob store.
func (fs *FS) Remove(path string) {
	delete(fs.pf.Files, path)
	delete(fs.blobs, path)
}
