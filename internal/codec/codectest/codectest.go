// Package codectest holds the decode property every byte-format fuzz
// target shares, for use from tests.
package codectest

import (
	"bytes"
	"errors"
	"testing"
)

// Decode decodes b. For an input it accepts it returns the re-encoding of
// what it decoded and the span [lo, hi) of prefix lengths the format
// delimits: [0, len(b)) for a format that delimits all of itself, less for
// one that ends in a field running to the end of its input or that may end
// after any whole element.
type Decode func(b []byte) (re []byte, lo, hi int, err error)

// Check asserts the decode property on b: decode rejects it with an error
// wrapping one of sentinels, or accepts it and re-encodes it to itself;
// every prefix in the delimited span is rejected; and, unless the format
// is open (its last field, or the input after it, runs to the end, so an
// extra byte is still well formed), so is b followed by any one byte. An
// open format's re-encoding carries the undelimited tail along, so a
// decoder that drops or misplaces it fails the equality.
func Check(t testing.TB, b []byte, open bool, decode Decode, sentinels ...error) {
	t.Helper()
	re, lo, hi, err := decode(b)
	if err != nil {
		wrapsOne(t, "input", b, err, sentinels)
		return
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("re-encoding differs:\n  in %x\n out %x", b, re)
	}
	for n := lo; n < hi; n++ {
		mustReject(t, "prefix", b[:n:n], decode, sentinels)
	}
	for c := 0; c < 256 && !open; c++ {
		mustReject(t, "trailing byte", append(b[:len(b):len(b)], byte(c)), decode, sentinels)
	}
}

func mustReject(t testing.TB, what string, b []byte, decode Decode, sentinels []error) {
	t.Helper()
	if _, _, _, err := decode(b); err != nil {
		wrapsOne(t, what, b, err, sentinels)
	} else {
		t.Fatalf("%s %x accepted", what, b)
	}
}

func wrapsOne(t testing.TB, what string, b []byte, err error, sentinels []error) {
	t.Helper()
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("%s %x rejected with %v, which wraps none of %v", what, b, err, sentinels)
}
