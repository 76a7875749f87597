package scbr

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"securecloud/internal/codec"
)

// Envelope codec: the one plaintext form of a publication or subscription
// inside a sealed envelope. It is a flat length-prefixed layout that
// encodes in one append pass and decodes without reflection; the decoders
// reject anything else (a JSON document, a truncated frame, trailing
// bytes), and deliveries carry the publisher's frame verbatim.
//
// Layout (big-endian, read with internal/codec):
//
//	event:        magic kindEvent u32 nattrs { u16 len, attr, f64 value }* u32 plen payload
//	subscription: magic kindSub   u64 id u32 npreds { u16 len, attr, f64 lo, f64 hi }*
//
// Event attributes are encoded in sorted attribute order, so equal events
// encode to equal bytes (deterministic fixtures and cacheable frames).
const (
	binMagic     = 0xB5
	binKindEvent = 0x01
	binKindSub   = 0x02
)

// errTruncated is what every envelope decode error wraps.
var errTruncated = fmt.Errorf("scbr: malformed binary frame")

// errOversize rejects fields that would wrap the frame's length prefixes —
// encoding them anyway would emit a silently corrupt frame.
var errOversize = fmt.Errorf("scbr: field exceeds binary frame limits")

// appendEvent appends the binary encoding of e to dst.
func appendEvent(dst []byte, e Event) ([]byte, error) {
	attrs := make([]string, 0, len(e.Attrs))
	for a := range e.Attrs {
		if len(a) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: attribute name %d bytes", errOversize, len(a))
		}
		attrs = append(attrs, a)
	}
	if uint64(len(e.Payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: payload %d bytes", errOversize, len(e.Payload))
	}
	sort.Strings(attrs)
	dst = append(dst, binMagic, binKindEvent)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(attrs)))
	for _, a := range attrs {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(a)))
		dst = append(dst, a...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.Attrs[a]))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Payload)))
	return append(dst, e.Payload...), nil
}

// appendSubscription appends the binary encoding of s to dst.
func appendSubscription(dst []byte, s Subscription) ([]byte, error) {
	dst = append(dst, binMagic, binKindSub)
	dst = binary.BigEndian.AppendUint64(dst, s.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Preds)))
	for i := range s.Preds {
		p := &s.Preds[i]
		if len(p.Attr) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: attribute name %d bytes", errOversize, len(p.Attr))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Attr)))
		dst = append(dst, p.Attr...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Interval.Lo))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Interval.Hi))
	}
	return dst, nil
}

// decodeEvent decodes an appendEvent frame.
func decodeEvent(raw []byte) (Event, error) {
	magic, r := codec.NewReader(raw).U8()
	kind, r := r.U8()
	if magic != binMagic || kind != binKindEvent {
		return Event{}, fmt.Errorf("%w: not a binary event frame", errTruncated)
	}
	n32, r := r.U32()
	n, r := r.Count(uint64(n32), 2+8) // an attribute is at least u16 len, f64
	e := Event{Attrs: make(map[string]float64, n)}
	prev := ""
	for i := 0; i < n; i++ {
		var alen uint16
		var a []byte
		var v uint64
		alen, r = r.U16()
		a, r = r.Bytes(int(alen))
		v, r = r.U64()
		attr := string(a)
		if i > 0 && attr <= prev && r.Err() == nil { // appendEvent sorts them
			return Event{}, fmt.Errorf("%w: attribute %q out of order", errTruncated, attr)
		}
		e.Attrs[attr] = math.Float64frombits(v)
		prev = attr
	}
	n32, r = r.U32()
	payload, r := r.Bytes(int(n32))
	if len(payload) > 0 {
		e.Payload = append([]byte(nil), payload...)
	}
	if err := r.Done(); err != nil { // byte-distinct frames must not decode equal
		return Event{}, fmt.Errorf("%w: %w", errTruncated, err)
	}
	return e, nil
}

// decodeSubscription decodes an appendSubscription frame.
func decodeSubscription(raw []byte) (Subscription, error) {
	magic, r := codec.NewReader(raw).U8()
	kind, r := r.U8()
	if magic != binMagic || kind != binKindSub {
		return Subscription{}, fmt.Errorf("%w: not a binary subscription frame", errTruncated)
	}
	id, r := r.U64()
	n32, r := r.U32()
	n, r := r.Count(uint64(n32), 2+16) // a predicate is at least u16 len, 2 f64
	s := Subscription{ID: id, Preds: make([]Predicate, n)}
	for i := range s.Preds {
		var alen uint16
		var a []byte
		var lo, hi uint64
		alen, r = r.U16()
		a, r = r.Bytes(int(alen))
		lo, r = r.U64()
		hi, r = r.U64()
		s.Preds[i] = Predicate{Attr: string(a), Interval: Interval{Lo: math.Float64frombits(lo), Hi: math.Float64frombits(hi)}}
	}
	if err := r.Done(); err != nil {
		return Subscription{}, fmt.Errorf("%w: %w", errTruncated, err)
	}
	return s, nil
}
