package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeBatch: every input either errors with ErrBadBatch or decodes
// to frames that EncodeBatch turns back into exactly the input.
func FuzzDecodeBatch(f *testing.F) {
	// A batch holding one frame in the retired untagged layout
	// (u16 key length | key | sealed) and one empty frame.
	f.Add(EncodeBatch([][]byte{{0x00, 0x03, 'k', 'e', 'y', 's', 'e', 'a', 'l'}, {}}))
	f.Add(EncodeBatch(nil))
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := DecodeBatch(b)
		if err != nil {
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("err = %v, want ErrBadBatch", err)
			}
			return
		}
		if re := EncodeBatch(frames); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", b, re)
		}
	})
}
