// Package wire is the HTTP front end over the attested plane: SCBR
// publish/subscribe-poll and ReplicaSet send/poll-reply endpoints that
// carry the existing sealed envelopes verbatim as request and response
// bodies. The transport is untrusted by construction — every byte crossing
// it is already sealed to keys the front end never holds, so HTTP adds
// reach, not trust. The package also exports a Prometheus-style /metrics
// endpoint over the shared stats.Source surface and optional pprof wiring
// for wall-clock profiling.
//
// Exposing the plane to the network also exposes its control surface, and
// confidentiality alone is not enough there. Three guards close the holes
// an anonymous peer would otherwise have: a handshake never displaces a
// live SCBR session (re-keying requires Rehandshake's proof of the old
// session key, so client IDs cannot be taken over); SCBR polls are
// destructive drains and therefore demand a sealed single-use token under
// the session key (replay-protected by a monotonic counter); and
// per-tenant plane mailboxes are capped (DefaultMailboxCap, drop-oldest)
// so forged cleartext tenant IDs cannot grow memory without bound.
// Config.AuthToken optionally gates the whole /scbr/* + /plane/* surface
// behind a bearer token; without it, anonymous peers still cannot read or
// forge sealed traffic or hijack sessions, but they CAN poll plane reply
// mailboxes by tenant ID and submit structurally valid frames — run
// tokenless only on trusted (loopback) networks. Config.Quoter serves
// nonce-bound broker quotes so DialSCBROpts can attest the broker before
// handing over subscription filters, like in-process scbr.Connect.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"securecloud/internal/codec"
)

// ErrBadBatch flags a malformed frame batch body.
var ErrBadBatch = errors.New("wire: bad frame batch")

// Batch wire form: u32 frame count, then per frame u32 length + bytes,
// all big-endian. Frames are opaque sealed envelopes; the codec moves
// bytes and validates structure only.

// EncodeBatch renders frames into the batch wire form.
func EncodeBatch(frames [][]byte) []byte {
	n := 4
	for _, f := range frames {
		n += 4 + len(f)
	}
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint32(b, uint32(len(frames)))
	for _, f := range frames {
		b = binary.BigEndian.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
}

// DecodeBatch parses the batch wire form. The claimed count is bounded by
// the 4 bytes of length prefix each frame needs before the frame slice is
// allocated, and short frames and trailing bytes are rejected.
func DecodeBatch(b []byte) ([][]byte, error) {
	n32, r := codec.NewReader(b).U32()
	n, r := r.Count(uint64(n32), 4)
	frames := make([][]byte, n)
	for i := range frames {
		n32, r = r.U32()
		frames[i], r = r.Bytes(int(n32))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBatch, err)
	}
	return frames, nil
}
