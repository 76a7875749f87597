package image

import (
	"encoding/binary"
	"fmt"

	"securecloud/internal/codec"
)

// The data plane moves layers as chunked transfer payloads, which needs a
// byte form that is both deterministic (identical layers must chunk to
// identical sealed bytes for cross-image dedup) and parseable (the puller
// reconstructs the layer from reassembled bytes). Layer.canonical is
// deterministic but not parseable — file contents may contain its NUL
// separators — so the codec below length-prefixes every field instead.
// Layer.Digest intentionally stays defined over canonical: the digest is
// the layer's identity, the encoding is its wire form.

// Encode renders the layer deterministically for chunking: paths sorted,
// every path and content uvarint-length-prefixed.
func (l Layer) Encode() []byte {
	paths := l.sortedPaths()
	size := 0
	for _, p := range paths {
		size += binary.MaxVarintLen64 * 2
		size += len(p) + len(l.Files[p])
	}
	buf := make([]byte, 0, size)
	for _, p := range paths {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
		buf = binary.AppendUvarint(buf, uint64(len(l.Files[p])))
		buf = append(buf, l.Files[p]...)
	}
	return buf
}

// DecodeLayer reverses Layer.Encode, whose strictly increasing path order
// it requires, so a layer has one encoding. The caller must still check
// the decoded layer's Digest against a trusted manifest — the encoding
// crosses the untrusted registry.
func DecodeLayer(b []byte) (Layer, error) {
	l := Layer{Files: make(map[string][]byte)}
	r := codec.NewReader(b)
	prev := ""
	for r.Remaining() > 0 {
		var n uint64
		var p, data []byte
		n, r = r.Uvarint()
		p, r = r.Bytes(int(n))
		n, r = r.Uvarint()
		data, r = r.Bytes(int(n))
		if err := r.Err(); err != nil {
			return Layer{}, fmt.Errorf("image: decoding layer: %w", err)
		}
		path := string(p)
		if len(l.Files) > 0 && path <= prev {
			return Layer{}, fmt.Errorf("image: decoding layer: path %q after %q: %w", path, prev, codec.ErrMalformed)
		}
		l.Files[path] = append([]byte(nil), data...)
		prev = path
	}
	return l, nil
}
