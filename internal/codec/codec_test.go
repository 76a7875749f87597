package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestReaderReadsWhatAppendWrites(t *testing.T) {
	b := []byte{7}
	b = binary.BigEndian.AppendUint16(b, 0xBEEF)
	b = binary.BigEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.BigEndian.AppendUint64(b, math.MaxUint64-1)
	for _, v := range []uint64{0, 127, 128, 1 << 35, math.MaxUint64} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, "keyrest"...)

	r := NewReader(b)
	u8, r := r.U8()
	u16, r := r.U16()
	u32, r := r.U32()
	u64, r := r.U64()
	if u8 != 7 || u16 != 0xBEEF || u32 != 0xDEADBEEF || u64 != math.MaxUint64-1 {
		t.Fatal("fixed-width reads disagree with the encoder")
	}
	for _, want := range []uint64{0, 127, 128, 1 << 35, math.MaxUint64} {
		var got uint64
		if got, r = r.Uvarint(); got != want {
			t.Fatalf("Uvarint = %d, want %d", got, want)
		}
	}
	key, r := r.Bytes(3)
	if string(key) != "key" || cap(key) != 3 {
		t.Fatalf("Bytes(3) = %q with capacity %d", key, cap(key))
	}
	if n, _ := r.Count(2, 2); r.Remaining() != 4 || n != 2 {
		t.Fatalf("Remaining = %d, want 4, with room for two 2-byte elements", r.Remaining())
	}
	if rest := r.Rest(); string(rest) != "rest" || cap(rest) != 4 {
		t.Fatalf("Rest = %q with capacity %d", rest, cap(rest))
	}
	if _, r = r.Bytes(4); r.Done() != nil {
		t.Fatal(r.Done())
	}
}

// TestReaderRejects: every short, forged or non-minimal read, and unread
// bytes at Done, fail with an error wrapping ErrMalformed, and the error
// sticks: later reads return zero values and Done reports the first
// failure.
func TestReaderRejects(t *testing.T) {
	skip := func(r Reader, n int) Reader { _, r = r.Bytes(r.Remaining() - n); return r }
	for name, read := range map[string]func(r Reader) Reader{
		"short u8":             func(r Reader) Reader { _, r = skip(r, 0).U8(); return r },
		"short u16":            func(r Reader) Reader { _, r = skip(r, 1).U16(); return r },
		"short u32":            func(r Reader) Reader { _, r = skip(r, 3).U32(); return r },
		"short u64":            func(r Reader) Reader { _, r = skip(r, 7).U64(); return r },
		"bytes past end":       func(r Reader) Reader { return skip(r, -1) },
		"negative length":      func(r Reader) Reader { _, r = r.Bytes(-1); return r },
		"uvarint at end":       func(r Reader) Reader { _, r = skip(r, 0).Uvarint(); return r },
		"truncated uvarint":    func(r Reader) Reader { _, r = skip(r, 1).Uvarint(); return r },
		"non-minimal uvarint":  func(Reader) Reader { _, r := NewReader([]byte{0x81, 0x00}).Uvarint(); return r },
		"overflowing uvarint":  func(Reader) Reader { _, r := NewReader(bytes.Repeat([]byte{0xFF}, 11)).Uvarint(); return r },
		"count over remaining": func(r Reader) Reader { _, r = r.Count(uint64(r.Remaining())/4+1, 4); return r },
		"huge count":           func(r Reader) Reader { _, r = r.Count(math.MaxUint64, 1); return r },
	} {
		r := read(NewReader([]byte{0x80, 1, 2, 3, 4, 5, 6, 7, 0x80}))
		first := r.Err()
		if !errors.Is(first, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, first)
			continue
		}
		v, r := r.U64()
		b, r := r.Bytes(0)
		if _, r = r.U8(); v != 0 || b != nil || r.Remaining() != 0 || r.Done() != first {
			t.Errorf("%s: the error did not stick", name)
		}
	}
	if _, r := NewReader([]byte{1, 2}).U8(); !errors.Is(r.Done(), ErrMalformed) || r.Err() != nil {
		t.Errorf("trailing bytes: Done = %v, Err = %v", r.Done(), r.Err())
	}
}

// TestUvarintMatchesBinary: Uvarint accepts exactly the encodings
// binary.Uvarint reads without overflow that are also minimal, and reads
// the same value from them.
func TestUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}}
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(11))
		for j := range b {
			b[j] = byte(rng.Intn(256))
			if j < len(b)-1 && rng.Intn(4) > 0 {
				b[j] |= 0x80 // mostly continuation bytes, so long encodings occur
			}
		}
		inputs = append(inputs, b)
	}
	for _, b := range inputs {
		want, n := binary.Uvarint(b)
		ok := n > 0 && (n == 1 || b[n-1] != 0)
		got, r := NewReader(b).Uvarint()
		if (r.Err() == nil) != ok || ok && (got != want || r.Remaining() != len(b)-n) {
			t.Fatalf("Uvarint(%x) = %d, %v, %d left; binary.Uvarint = %d, %d", b, got, r.Err(), r.Remaining(), want, n)
		}
	}
}
