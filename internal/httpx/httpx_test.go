package httpx

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"securecloud/internal/cryptbox"
)

func TestParseDigest(t *testing.T) {
	d := cryptbox.Sum([]byte("hello"))
	got, err := ParseDigest("test", d.String())
	if err != nil || got != d {
		t.Fatalf("sha256-prefixed form: %v %v", got, err)
	}
	got, err = ParseDigest("test", strings.TrimPrefix(d.String(), "sha256:"))
	if err != nil || got != d {
		t.Fatalf("bare hex form: %v %v", got, err)
	}
	if _, err := ParseDigest("scope", "nope"); err == nil || !strings.Contains(err.Error(), `scope: bad digest "nope"`) {
		t.Fatalf("bad digest error rendering: %v", err)
	}
	if _, err := ParseDigest("scope", "sha256:abcd"); err == nil {
		t.Fatal("short digest should fail")
	}
}

func TestWriteConditional(t *testing.T) {
	d := cryptbox.Sum([]byte("body"))
	handler := func(w http.ResponseWriter, req *http.Request) {
		WriteConditional(w, req, d, "application/octet-stream", func() ([]byte, error) {
			return []byte("body"), nil
		})
	}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	rec := httptest.NewRecorder()
	handler(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "body" {
		t.Fatalf("plain GET: %d %q", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if etag != `"`+d.String()+`"` {
		t.Fatalf("etag %q", etag)
	}
	req = httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	handler(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("conditional GET: %d %q", rec.Code, rec.Body.String())
	}
}

func TestReadBodyBounds(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(make([]byte, 100)))
	rec := httptest.NewRecorder()
	if body, ok := ReadBody(rec, req, 100); !ok || len(body) != 100 {
		t.Fatalf("at-limit body rejected: ok=%v len=%d", ok, len(body))
	}
	req = httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(make([]byte, 101)))
	rec = httptest.NewRecorder()
	if _, ok := ReadBody(rec, req, 100); ok {
		t.Fatal("over-limit body accepted")
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit status %d, want 413", rec.Code)
	}
}

// TestReadAllPresizes: a body of declared length is read whole into one
// allocation; an unknown length still reads whole; a forged length
// reserves at most maxPresize; a short body's read error comes back.
func TestReadAllPresizes(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3000)
	for _, size := range []int64{3000, -1, 1 << 40} {
		got, err := ReadAll(bytes.NewReader(body), size)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: read %d bytes, err %v", size, len(got), err)
		}
		if size > maxPresize && cap(got) > maxPresize+1 {
			t.Fatalf("forged size %d reserved %d bytes, bound %d", size, cap(got), maxPresize+1)
		}
	}
	r := bytes.NewReader(body)
	if n := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		if _, err := ReadAll(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("declared-length read allocated %v times, want 1", n)
	}
	short := io.MultiReader(bytes.NewReader(body[:10]), iotest.ErrReader(io.ErrUnexpectedEOF))
	if got, err := ReadAll(short, 3000); !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 10 {
		t.Fatalf("short body: %d bytes, err %v; want 10 bytes and ErrUnexpectedEOF", len(got), err)
	}
}
