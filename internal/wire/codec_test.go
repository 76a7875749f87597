package wire

import (
	"testing"

	"securecloud/internal/codec/codectest"
)

// batchFormat is the batch wire form under the shared decode property.
func batchFormat(b []byte) ([]byte, int, int, error) {
	frames, err := DecodeBatch(b)
	if err != nil {
		return nil, 0, 0, err
	}
	return EncodeBatch(frames), 0, len(b), nil
}

// FuzzDecodeBatch: the batch wire form satisfies the shared decode
// property — every rejection wraps ErrBadBatch, an accepted batch
// re-encodes to its own bytes, and every cut and trailing byte is
// rejected.
func FuzzDecodeBatch(f *testing.F) {
	// A batch holding one frame in the retired untagged layout
	// (u16 key length | key | sealed) and one empty frame.
	f.Add(EncodeBatch([][]byte{{0x00, 0x03, 'k', 'e', 'y', 's', 'e', 'a', 'l'}, {}}))
	f.Add(EncodeBatch(nil))
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // forged count
	f.Fuzz(func(t *testing.T, b []byte) {
		codectest.Check(t, b, false, batchFormat, ErrBadBatch)
	})
}

// BenchmarkDecodeBatch decodes a batch of eight 16 KiB frames: one HTTP
// request or reply body of the plane front end.
func BenchmarkDecodeBatch(b *testing.B) {
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = make([]byte, 16<<10)
	}
	body := EncodeBatch(frames)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeBatch(body); err != nil {
			b.Fatal(err)
		}
	}
}
