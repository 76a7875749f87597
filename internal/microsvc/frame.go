package microsvc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"securecloud/internal/cryptbox"
)

// ErrBadFrame rejects a plane frame that does not decode.
var ErrBadFrame = errors.New("microsvc: malformed request frame")

// Plane frames carry requests and replies between clients and a replica
// set. Everything before the sealed body is cleartext routing metadata
// (like a topic name — the untrusted bus already sees message boundaries);
// the body stays sealed under the service's request key end to end:
//
//	0xFF 0xFF | flags u8 | tlen u8 | tenant | id u64 | klen u16 | key | sealed
//
// The leading magic is fixed. The tenant is the account the admission
// controller charges (an untagged request is tenant ""), the id is the
// client-assigned request ID echoed in replies, and the key is the routing
// key the front-end hashes onto a replica. flags bit 0 marks a shed reply
// (sealed body = retry-after hint, not a response); the other bits are
// reserved and must be zero, so every frame that decodes re-encodes to its
// own bytes.
const (
	frameMagic    = 0xFFFF
	frameFlagShed = 0x01
)

// frameMeta is a frame's tenant envelope: the tenant ID the admission
// controller accounts the request to and the client-assigned request ID
// echoed in replies (served and shed alike) so clients can correlate.
type frameMeta struct {
	tenant string
	id     uint64
}

// request is one routed unit of work: the cleartext routing key, the
// still-sealed body, the tenant envelope, and — once admitted — the
// admission step it arrived in (queue-wait accounting).
type request struct {
	key       string
	sealed    []byte
	meta      frameMeta
	admitStep uint64
}

// appendFrameV2Header appends everything of a frame before the sealed
// body: magic, flags, tenant envelope, request ID and routing key.
func appendFrameV2Header(b []byte, key string, meta frameMeta, flags byte) []byte {
	var w [8]byte
	binary.BigEndian.PutUint16(w[:2], frameMagic)
	b = append(b, w[0], w[1], flags, byte(len(meta.tenant)))
	b = append(b, meta.tenant...)
	binary.BigEndian.PutUint64(w[:], meta.id)
	b = append(b, w[:]...)
	binary.BigEndian.PutUint16(w[:2], uint16(len(key)))
	b = append(b, w[0], w[1])
	return append(b, key...)
}

// frameV2HeaderLen is the byte length appendFrameV2Header emits.
func frameV2HeaderLen(key string, meta frameMeta) int {
	return 2 + 1 + 1 + len(meta.tenant) + 8 + 2 + len(key)
}

// sealFrame lays out a frame header and seals body directly after it with
// SealAppend, so a frame costs one exact-capacity allocation instead of
// seal-then-copy. The sealed part starts at frameV2HeaderLen(key, meta).
func sealFrame(box *cryptbox.Box, key string, meta frameMeta, flags byte, body, aad []byte) ([]byte, error) {
	hdr := appendFrameV2Header(make([]byte, 0, frameV2HeaderLen(key, meta)+len(body)+box.Overhead()), key, meta, flags)
	return box.SealAppend(hdr, body, aad)
}

// decodeFrameAny decodes a frame into a request; the bool reports the shed
// flag.
func decodeFrameAny(b []byte) (request, bool, error) {
	if len(b) < 4 || binary.BigEndian.Uint16(b) != frameMagic || b[2]&^frameFlagShed != 0 {
		return request{}, false, ErrBadFrame
	}
	flags := b[2]
	tn := int(b[3])
	off := 4
	if len(b) < off+tn+8+2 {
		return request{}, false, ErrBadFrame
	}
	tenant := string(b[off : off+tn])
	off += tn
	id := binary.BigEndian.Uint64(b[off:])
	off += 8
	kn := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+kn {
		return request{}, false, ErrBadFrame
	}
	q := request{
		key:    string(b[off : off+kn]),
		sealed: b[off+kn:],
		meta:   frameMeta{tenant: tenant, id: id},
	}
	return q, flags&frameFlagShed != 0, nil
}

// reqAADFor / respAADFor / shedAADFor bind plane frames to the service and
// direction, so a reply can never replay as a request, a request sealed for
// one service never opens in another — and a shed notice can never replay
// as a served reply.
func reqAADFor(name string) []byte  { return []byte("req|" + name) }
func respAADFor(name string) []byte { return []byte("resp|" + name) }
func shedAADFor(name string) []byte { return []byte("shed|" + name) }

// CheckFrame validates a sealed plane frame without decrypting anything:
// it must decode and must not carry the shed flag (sheds are
// server→client only). Gateways use it to reject malformed ingress before
// a frame reaches a topic.
func CheckFrame(b []byte) error {
	_, shed, err := decodeFrameAny(b)
	if err != nil {
		return err
	}
	if shed {
		return fmt.Errorf("%w: shed flag on a request frame", ErrBadFrame)
	}
	return nil
}

// PeekFrameTenant reads a frame's cleartext tenant envelope and shed flag
// without materializing the rest — the lean form gateways route reply
// mailboxes with.
func PeekFrameTenant(b []byte) (tenant string, shed bool, err error) {
	if len(b) < 4 || binary.BigEndian.Uint16(b) != frameMagic || b[2]&^frameFlagShed != 0 {
		return "", false, ErrBadFrame
	}
	tn := int(b[3])
	off := 4 + tn
	if len(b) < off+8+2 {
		return "", false, ErrBadFrame
	}
	kn := int(binary.BigEndian.Uint16(b[off+8:]))
	if len(b) < off+8+2+kn {
		return "", false, ErrBadFrame
	}
	return string(b[4:off]), b[2]&frameFlagShed != 0, nil
}
