package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"securecloud/internal/httpx"
)

// DefaultMaxResp bounds client-side response reads — the mirror image of
// the server's DefaultMaxBody guard: a hostile or broken server cannot
// balloon a client's memory with an unbounded body. Poll batches are the
// largest legitimate responses, so the cap is generous.
const DefaultMaxResp = 16 << 20

// readAllCapped reads a response body to EOF, failing if it exceeds max
// bytes. Its declared length sizes the read buffer.
func readAllCapped(resp *http.Response, max int64) ([]byte, error) {
	b, err := httpx.ReadAll(io.LimitReader(resp.Body, max+1), min(resp.ContentLength, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > max {
		return nil, fmt.Errorf("wire: response body over %d bytes", max)
	}
	return b, nil
}

// doRequest issues one HTTP request with the optional bearer token and a
// capped response read, turning non-200 statuses into errors carrying the
// (truncated) response text.
func doRequest(hc *http.Client, method, url, auth string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if auth != "" {
		req.Header.Set("Authorization", "Bearer "+auth)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := readAllCapped(resp, 4096)
		return nil, fmt.Errorf("wire: %s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return readAllCapped(resp, DefaultMaxResp)
}
