package microsvc

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameCodec(t *testing.T) {
	meta := frameMeta{tenant: "acme", id: 42}
	f := append(appendFrameV2Header(nil, "feeder-07", meta, 0), "sealed-bytes"...)
	if len(f) != frameV2HeaderLen("feeder-07", meta)+len("sealed-bytes") {
		t.Fatalf("frame length %d disagrees with frameV2HeaderLen", len(f))
	}
	q, shed, err := decodeFrameAny(f)
	if err != nil || shed || q.key != "feeder-07" || string(q.sealed) != "sealed-bytes" || q.meta != meta {
		t.Fatalf("roundtrip = %+v shed=%v err=%v", q, shed, err)
	}
	if tenant, shed, err := PeekFrameTenant(f); err != nil || shed || tenant != "acme" {
		t.Fatalf("peek = %q %v %v", tenant, shed, err)
	}
	shedFrame := append(appendFrameV2Header(nil, "k", frameMeta{}, frameFlagShed), 1)
	if _, shed, err := decodeFrameAny(shedFrame); err != nil || !shed {
		t.Fatalf("shed frame: shed=%v err=%v", shed, err)
	}
	if err := CheckFrame(shedFrame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CheckFrame accepted a shed frame: %v", err)
	}
	reserved := append(appendFrameV2Header(nil, "k", frameMeta{}, 0x02), 1)
	for _, bad := range [][]byte{
		nil, {0x00}, {0xFF, 0xFF, 0x00},
		f[:frameV2HeaderLen("feeder-07", meta)-1], // key cut short
		f[:4+len("acme")+8+1],                     // key length cut short
		reserved,
	} {
		if _, _, err := decodeFrameAny(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decodeFrameAny(%v) err = %v, want ErrBadFrame", bad, err)
		}
		if _, _, err := PeekFrameTenant(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("PeekFrameTenant(%v) err = %v, want ErrBadFrame", bad, err)
		}
	}
}

// legacyFrame lays out a frame in the retired untagged format: u16 key
// length, key, sealed body. The plane no longer speaks it.
func legacyFrame(key string, sealed []byte) []byte {
	b := []byte{byte(len(key) >> 8), byte(len(key))}
	return append(append(b, key...), sealed...)
}

// FuzzDecodeFrame: every input either errors with ErrBadFrame or decodes;
// CheckFrame and PeekFrameTenant agree with the decode; and a decoded frame
// re-encodes to exactly the input bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(append(appendFrameV2Header(nil, "feeder-07", frameMeta{tenant: "acme", id: 42}, 0), "sealed"...))
	f.Add(append(appendFrameV2Header(nil, "", frameMeta{}, frameFlagShed), 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(legacyFrame("meter-01", []byte("sealed")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, shed, err := decodeFrameAny(b)
		checkErr := CheckFrame(b)
		tenant, peekShed, peekErr := PeekFrameTenant(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(checkErr, ErrBadFrame) || !errors.Is(peekErr, ErrBadFrame) {
				t.Fatalf("decode %v, check %v, peek %v: want ErrBadFrame from all three", err, checkErr, peekErr)
			}
			return
		}
		if peekErr != nil || tenant != q.meta.tenant || peekShed != shed {
			t.Fatalf("peek = %q %v %v, decode = %q %v", tenant, peekShed, peekErr, q.meta.tenant, shed)
		}
		if (checkErr == nil) == shed {
			t.Fatalf("CheckFrame = %v on a frame with shed=%v", checkErr, shed)
		}
		var flags byte
		if shed {
			flags = frameFlagShed
		}
		if re := append(appendFrameV2Header(nil, q.key, q.meta, flags), q.sealed...); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", b, re)
		}
	})
}
