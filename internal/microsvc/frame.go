package microsvc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"securecloud/internal/codec"
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
	b = binary.BigEndian.AppendUint16(b, frameMagic)
	b = append(b, flags, byte(len(meta.tenant)))
	b = append(b, meta.tenant...)
	b = binary.BigEndian.AppendUint64(b, meta.id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(key)))
	return append(b, key...)
}

// frameAAD builds a frame's AAD: direction | service | the frame's
// cleartext header. Binding the header means a host that rewrites a
// frame's tenant, request ID, routing key or flags — or moves a sealed
// body under another frame's header — breaks the seal. The AAD is built
// in a buffer its owner reuses, so binding costs no allocation per frame;
// like the rest of a replica's, client's or front end's serve state, a
// frameAAD is not safe for concurrent use.
type frameAAD struct {
	buf    []byte
	prefix int // len("<direction>|<service>|")
}

func newFrameAAD(direction, name string) *frameAAD {
	buf := []byte(direction + "|" + name + "|")
	return &frameAAD{buf: buf, prefix: len(buf)}
}

// bind returns the AAD of the frame with this header. The result is
// valid until the next bind.
func (a *frameAAD) bind(key string, meta frameMeta, flags byte) []byte {
	a.buf = appendFrameV2Header(a.buf[:a.prefix], key, meta, flags)
	return a.buf
}

// The frame AADs per direction: a reply can never replay as a request, a
// request sealed for one service never opens in another, and a shed notice
// can never replay as a served reply.
func reqAADFor(name string) *frameAAD  { return newFrameAAD("req", name) }
func respAADFor(name string) *frameAAD { return newFrameAAD("resp", name) }
func shedAADFor(name string) *frameAAD { return newFrameAAD("shed", name) }

// sealFrame lays out a frame header in dst and seals body directly after it
// with SealAppend, under aad bound to that header, so a frame costs at most
// one exact-capacity allocation instead of seal-then-copy — none when dst
// already has room (a pooled cryptbox.GetScratch buffer). dst's contents
// are discarded; pass nil for a fresh frame.
func sealFrame(dst []byte, box *cryptbox.Box, key string, meta frameMeta, flags byte, body []byte, aad *frameAAD) ([]byte, error) {
	// A header is 14 bytes of fixed fields plus the tenant and the key.
	if need := 14 + len(meta.tenant) + len(key) + len(body) + box.Overhead(); cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	return box.SealAppend(appendFrameV2Header(dst[:0], key, meta, flags), body, aad.bind(key, meta, flags))
}

// openFrame opens a decoded frame's sealed body in place, under aad bound
// to the header it arrived with.
func openFrame(box *cryptbox.Box, q request, flags byte, aad *frameAAD) ([]byte, error) {
	return box.OpenInPlace(q.sealed, aad.bind(q.key, q.meta, flags))
}

// decodeFrame decodes a frame's header fields and sealed body. It returns
// the tenant and the routing key as S: string copies them out of the
// frame, []byte aliases them, so a caller that needs neither allocates
// nothing. Every frame it accepts re-encodes to its own bytes, so the
// header its fields rebuild is the header the frame carried.
func decodeFrame[S string | []byte](b []byte) (tenant, key S, id uint64, shed bool, sealed []byte, err error) {
	magic, r := codec.NewReader(b).U16()
	flags, r := r.U8()
	tn, r := r.U8()
	t, r := r.Bytes(int(tn))
	id, r = r.U64()
	kn, r := r.U16()
	k, r := r.Bytes(int(kn))
	if err := r.Err(); err != nil {
		return tenant, key, 0, false, nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if magic != frameMagic || flags&^frameFlagShed != 0 {
		return tenant, key, 0, false, nil, ErrBadFrame
	}
	return S(t), S(k), id, flags&frameFlagShed != 0, r.Rest(), nil
}

// decodeFrameAny decodes a frame into a request; the bool reports the shed
// flag.
func decodeFrameAny(b []byte) (request, bool, error) {
	tenant, key, id, shed, sealed, err := decodeFrame[string](b)
	return request{key: key, sealed: sealed, meta: frameMeta{tenant: tenant, id: id}}, shed, err
}

// CheckFrame validates a sealed plane frame without decrypting anything:
// it must decode and must not carry the shed flag (sheds are
// server→client only). Gateways use it to reject malformed ingress before
// a frame reaches a topic.
func CheckFrame(b []byte) error {
	_, _, _, shed, _, err := decodeFrame[[]byte](b)
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
	t, _, _, shed, _, err := decodeFrame[[]byte](b)
	return string(t), shed, err
}
