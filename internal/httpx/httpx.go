// Package httpx holds the HTTP plumbing shared by the repo's front ends —
// the registry's chunk-granular endpoints and the wire plane's SCBR /
// ReplicaSet endpoints. It standardizes digest parsing, digest-conditional
// GET (ETag / If-None-Match), JSON responses, and bounded request-body
// reads, so each front end carries routing logic only.
package httpx

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"securecloud/internal/cryptbox"
)

// ParseDigest parses a digest in the "sha256:<hex>" rendering (the bare
// hex form is accepted too). scope prefixes the error text, so callers
// keep their package-local error rendering (e.g. `registry: bad digest`).
func ParseDigest(scope, s string) (cryptbox.Digest, error) {
	var d cryptbox.Digest
	b, err := hex.DecodeString(strings.TrimPrefix(s, "sha256:"))
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("%s: bad digest %q", scope, s)
	}
	copy(d[:], b)
	return d, nil
}

// WriteConditional serves a content-addressed response: the ETag is the
// digest, and a matching If-None-Match short-circuits to 304 with no body
// — the digest IS the content, so a client that has it needs nothing else.
func WriteConditional(w http.ResponseWriter, req *http.Request, d cryptbox.Digest, contentType string, body func() ([]byte, error)) {
	etag := `"` + d.String() + `"`
	w.Header().Set("ETag", etag)
	if match := req.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	b, err := body()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b)
}

// WriteJSON writes v as a JSON response body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// MethodNotAllowed rejects a request with 405 and the registry's historic
// error text.
func MethodNotAllowed(w http.ResponseWriter) {
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}

// ReadBody reads the whole request body, rejecting bodies over maxBytes
// with 413 (the oversize guard mirroring the codec forged-count checks).
// On failure it writes the error response and returns ok=false.
func ReadBody(w http.ResponseWriter, req *http.Request, maxBytes int64) ([]byte, bool) {
	body, err := ReadAll(http.MaxBytesReader(w, req.Body, maxBytes), min(req.ContentLength, maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// maxPresize bounds the buffer ReadAll reserves from a declared length, so
// a forged Content-Length reserves at most this much ahead of the bytes
// that actually arrive.
const maxPresize = 64 << 10

// ReadAll reads r to EOF like io.ReadAll, but starts from a buffer of the
// body's declared length — size, a Content-Length, or negative when
// unknown — clamped to maxPresize, so a body of known size up to that
// bound is read into one allocation instead of io.ReadAll's 512-byte
// start and regrowth. Larger or unknown bodies grow as io.ReadAll's do.
func ReadAll(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		// One spare byte lets the read that reports EOF land without a
		// regrowth.
		n = int(min(size, maxPresize)) + 1
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
