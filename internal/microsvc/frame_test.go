package microsvc

import (
	"testing"

	"securecloud/internal/codec/codectest"
)

func TestFrameCodec(t *testing.T) {
	meta := frameMeta{tenant: "acme", id: 42}
	f := append(appendFrameV2Header(nil, "feeder-07", meta, 0), "sealed-bytes"...)
	q, shed, err := decodeFrameAny(f)
	if err != nil || shed || q.key != "feeder-07" || string(q.sealed) != "sealed-bytes" || q.meta != meta {
		t.Fatalf("roundtrip = %+v shed=%v err=%v", q, shed, err)
	}
	shedFrame := append(appendFrameV2Header(nil, "k", frameMeta{}, frameFlagShed), 1)
	if _, shed, err := decodeFrameAny(shedFrame); err != nil || !shed {
		t.Fatalf("shed frame: shed=%v err=%v", shed, err)
	}
}

// legacyFrame lays out a frame in the retired untagged format: u16 key
// length, key, sealed body. The plane no longer speaks it.
func legacyFrame(key string, sealed []byte) []byte {
	b := []byte{byte(len(key) >> 8), byte(len(key))}
	return append(append(b, key...), sealed...)
}

// frameFormat is the frame under the shared decode property. The sealed
// body runs to the end of the frame, so only the header delimits itself.
func frameFormat(b []byte) ([]byte, int, int, error) {
	q, shed, err := decodeFrameAny(b)
	if err != nil {
		return nil, 0, 0, err
	}
	var flags byte
	if shed {
		flags = frameFlagShed
	}
	return append(appendFrameV2Header(nil, q.key, q.meta, flags), q.sealed...), 0, len(b) - len(q.sealed), nil
}

// FuzzDecodeFrame: the frame satisfies the shared decode property (every
// rejection wraps ErrBadFrame, an accepted frame re-encodes to its own
// bytes, a cut header is rejected), CheckFrame accepts exactly the frames
// that decode without the shed flag, and PeekFrameTenant agrees with the
// decode.
func FuzzDecodeFrame(f *testing.F) {
	meta := frameMeta{tenant: "acme", id: 42}
	f.Add(append(appendFrameV2Header(nil, "feeder-07", meta, 0), "sealed"...))
	f.Add(append(appendFrameV2Header(nil, "", frameMeta{}, frameFlagShed), 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(legacyFrame("meter-01", []byte("sealed")))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0x00})
	f.Add(append(appendFrameV2Header(nil, "k", frameMeta{}, 0x02), 1)) // reserved flag
	hdr := appendFrameV2Header(nil, "feeder-07", meta, 0)
	f.Add(hdr[:len(hdr)-1])             // key cut short
	f.Add(hdr[:4+len(meta.tenant)+8+1]) // key length cut short
	f.Fuzz(func(t *testing.T, b []byte) {
		codectest.Check(t, b, true, frameFormat, ErrBadFrame)
		q, shed, err := decodeFrameAny(b)
		if checkErr := CheckFrame(b); (checkErr == nil) != (err == nil && !shed) {
			t.Fatalf("CheckFrame = %v on a frame with decode error %v, shed=%v", checkErr, err, shed)
		}
		if tenant, peekShed, peekErr := PeekFrameTenant(b); (peekErr == nil) != (err == nil) || tenant != q.meta.tenant || peekShed != shed {
			t.Fatalf("peek = %q %v %v, decode = %q %v %v", tenant, peekShed, peekErr, q.meta.tenant, shed, err)
		}
	})
}

// BenchmarkDecodeFrame decodes the header of a 16 KiB request frame: the
// gateway's and the replica set's per-frame parse.
func BenchmarkDecodeFrame(b *testing.B) {
	f := append(appendFrameV2Header(nil, "meter-07", frameMeta{tenant: "acme", id: 42}, 0), make([]byte, 16<<10)...)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := decodeFrameAny(f); err != nil {
			b.Fatal(err)
		}
	}
}
