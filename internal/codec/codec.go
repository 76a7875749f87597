// Package codec is the one bounded reader for the repo's length-prefixed
// binary formats, each parsed on a trust boundary: every read is bounded
// by the bytes that remain, a claimed count is checked before anything is
// allocated for it (Count), and a format that must consume its whole
// input says so (Done). Integers are big-endian and a Uvarint must be
// minimally encoded, so each value has one encoding. Encoders append with
// encoding/binary's Append* functions.
//
// A Reader is a value: each read returns what it read and the advanced
// reader (v, r = r.U32()), so a decoder's cursor is a local that never has
// its address taken and stays in registers, as a hand-written offset
// would. Inside a loop, assign the reader with = rather than :=, or the
// loop body reads from a shadowing copy.
//
// The error is sticky: the first failed read records it and empties the
// reader, so later reads fail too and return zero values. A decoder reads
// all its fields, then checks the error once.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrMalformed is what every Reader error wraps.
var ErrMalformed = errors.New("codec: malformed input")

var (
	errShort    = fmt.Errorf("%w: truncated", ErrMalformed)
	errTrailing = fmt.Errorf("%w: trailing bytes", ErrMalformed)
	errVarint   = fmt.Errorf("%w: bad uvarint", ErrMalformed)
)

// Reader reads fields from the front of a byte slice. It holds its error
// as a pointer to one of the errors above, which keeps it four words long:
// the most the compiler keeps in registers.
type Reader struct {
	b   []byte
	err *error
}

// NewReader returns a Reader over b. Byte slices it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// fail is the emptied reader that carries the first error.
func (r Reader) fail(err *error) Reader {
	if r.err != nil {
		err = r.err
	}
	return Reader{err: err}
}

// U8 reads one byte.
func (r Reader) U8() (byte, Reader) {
	if len(r.b) < 1 {
		return 0, r.fail(&errShort)
	}
	return r.b[0], Reader{r.b[1:], r.err}
}

// U16 reads a big-endian uint16.
func (r Reader) U16() (uint16, Reader) {
	if len(r.b) < 2 {
		return 0, r.fail(&errShort)
	}
	return binary.BigEndian.Uint16(r.b), Reader{r.b[2:], r.err}
}

// U32 reads a big-endian uint32.
func (r Reader) U32() (uint32, Reader) {
	if len(r.b) < 4 {
		return 0, r.fail(&errShort)
	}
	return binary.BigEndian.Uint32(r.b), Reader{r.b[4:], r.err}
}

// U64 reads a big-endian uint64.
func (r Reader) U64() (uint64, Reader) {
	if len(r.b) < 8 {
		return 0, r.fail(&errShort)
	}
	return binary.BigEndian.Uint64(r.b), Reader{r.b[8:], r.err}
}

// Uvarint reads a minimally encoded varint: binary.Uvarint's encoding
// without a zero final byte, which would add nothing to the value. A
// one-byte varint, the common length prefix, takes the short path.
func (r Reader) Uvarint() (uint64, Reader) {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		return uint64(r.b[0]), Reader{r.b[1:], r.err}
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || r.b[n-1] == 0 { // n ≥ 2 here
		return 0, r.fail(&errVarint)
	}
	return v, Reader{r.b[n:], r.err}
}

// Bytes reads n bytes, aliasing the input with the capacity capped at n,
// so appending to the result cannot overwrite what follows.
func (r Reader) Bytes(n int) ([]byte, Reader) {
	if n < 0 || n > len(r.b) {
		return nil, r.fail(&errShort)
	}
	return r.b[:n:n], Reader{r.b[n:], r.err}
}

// Rest returns every unread byte, capacity-capped like Bytes: the last
// field of a format whose tail runs to the end of its input.
func (r Reader) Rest() []byte { return r.b[:len(r.b):len(r.b)] }

// Remaining reports how many bytes are unread.
func (r Reader) Remaining() int { return len(r.b) }

// Count returns the claimed count n if n elements of at least
// minElemBytes (≥ 1) each fit in the bytes that remain, else 0: the guard
// that keeps a forged count from sizing an allocation.
func (r Reader) Count(n uint64, minElemBytes int) (int, Reader) {
	if n > uint64(len(r.b)/minElemBytes) {
		return 0, r.fail(&errShort)
	}
	return int(n), r
}

// Err reports the first failed read, or nil.
func (r Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return *r.err
}

// Done is Err for a format that must consume its whole input: unread
// bytes are an error too. (A failed reader is empty, so bytes remain only
// when no read has failed.)
func (r Reader) Done() error {
	if len(r.b) > 0 {
		return errTrailing
	}
	return r.Err()
}
