package scbr

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"securecloud/internal/codec/codectest"
)

func mustEventBinary(t testing.TB, e Event) []byte {
	t.Helper()
	raw, err := appendEvent(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func mustSubBinary(t testing.TB, s Subscription) []byte {
	t.Helper()
	raw, err := appendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCodecEventRoundtrip(t *testing.T) {
	w := NewWorkload(DefaultWorkload(11))
	for i := 0; i < 50; i++ {
		e := w.NextEvent()
		raw := mustEventBinary(t, e)
		got, err := decodeEvent(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got.Attrs, e.Attrs) || string(got.Payload) != string(e.Payload) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestCodecEventDeterministic(t *testing.T) {
	e := Event{Attrs: map[string]float64{"b": 2, "a": 1, "c": 3}, Payload: []byte("p")}
	a := mustEventBinary(t, e)
	for i := 0; i < 10; i++ {
		if string(mustEventBinary(t, e)) != string(a) {
			t.Fatal("equal events encoded to different bytes")
		}
	}
}

func TestCodecSubscriptionRoundtrip(t *testing.T) {
	w := NewWorkload(DefaultWorkload(12))
	for i := 0; i < 50; i++ {
		s := w.NextSubscription()
		raw := mustSubBinary(t, s)
		got, err := decodeSubscription(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != s.ID || !reflect.DeepEqual(got.Preds, s.Preds) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, s)
		}
	}
}

// TestCodecHandlesInfinities: the binary form carries ±Inf bounds (e.g.
// FullRange predicates) that encoding/json rejects outright.
func TestCodecHandlesInfinities(t *testing.T) {
	s := Subscription{ID: 7, Preds: []Predicate{{Attr: "any", Interval: FullRange()}}}
	got, err := decodeSubscription(mustSubBinary(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Preds[0].Interval.Lo, -1) || !math.IsInf(got.Preds[0].Interval.Hi, 1) {
		t.Fatalf("infinite bounds lost: %+v", got.Preds[0].Interval)
	}
	if _, err := json.Marshal(s); err == nil {
		t.Log("note: json now accepts Inf?") // documents why binary matters here
	}
}

// TestCodecRejectsJSON: the binary frame is the only plaintext form. The
// JSON documents of an event and a subscription, which the decoders once
// sniffed and accepted, are refused with an error.
func TestCodecRejectsJSON(t *testing.T) {
	e := Event{Attrs: map[string]float64{"a": 1.5}, Payload: []byte("x")}
	rawJSON, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeEvent(rawJSON); err == nil {
		t.Fatalf("JSON event decoded: %+v", got)
	}
	s := Subscription{ID: 3, Preds: []Predicate{{Attr: "a", Interval: Interval{Lo: 0, Hi: 2}}}}
	if rawJSON, err = json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeSubscription(rawJSON); err == nil {
		t.Fatalf("JSON subscription decoded: %+v", got)
	}
	// The binary frames of the same values still decode.
	if _, err := decodeEvent(mustEventBinary(t, e)); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSubscription(mustSubBinary(t, s)); err != nil {
		t.Fatal(err)
	}
}

// eventFormat and subscriptionFormat are the two envelope decoders under
// the shared decode property.
func eventFormat(b []byte) ([]byte, int, int, error) {
	e, err := decodeEvent(b)
	if err != nil {
		return nil, 0, 0, err
	}
	re, err := appendEvent(nil, e)
	return re, 0, len(b), err
}

func subscriptionFormat(b []byte) ([]byte, int, int, error) {
	s, err := decodeSubscription(b)
	if err != nil {
		return nil, 0, 0, err
	}
	re, err := appendSubscription(nil, s)
	return re, 0, len(b), err
}

// FuzzDecodeEvent: the event frame satisfies the shared decode property
// (every rejection wraps errTruncated, an accepted frame re-encodes to its
// own bytes, every cut and every trailing byte is rejected), and no frame
// without the magic byte decodes, so a JSON document — the retired client
// form — is refused.
func FuzzDecodeEvent(f *testing.F) {
	e := Event{Attrs: map[string]float64{"alpha": 1, "b": 2}, Payload: []byte("payload")}
	s := Subscription{ID: 3, Preds: []Predicate{{Attr: "a", Interval: Interval{Lo: 0, Hi: 2}}}}
	f.Add(mustEventBinary(f, e))
	f.Add(mustSubBinary(f, s))
	f.Add([]byte{binMagic, binKindEvent, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte(`{"attrs":{"a":1}}`))
	for _, v := range []any{e, s} {
		doc, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	// Attributes out of order, and one attribute twice.
	f.Add([]byte{binMagic, binKindEvent, 0, 0, 0, 2, 0, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{binMagic, binKindEvent, 0, 0, 0, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		codectest.Check(t, raw, false, eventFormat, errTruncated)
		_, errE := decodeEvent(raw)
		_, errS := decodeSubscription(raw)
		if (len(raw) == 0 || raw[0] != binMagic) && (errE == nil || errS == nil) {
			t.Fatalf("frame without the magic byte decoded: %q", raw)
		}
	})
}

// FuzzDecodeSubscription: the subscription frame satisfies the shared
// decode property.
func FuzzDecodeSubscription(f *testing.F) {
	w := NewWorkload(DefaultWorkload(13))
	for i := 0; i < 3; i++ {
		f.Add(mustSubBinary(f, w.NextSubscription()))
	}
	nan := math.NaN()
	f.Add(mustSubBinary(f, Subscription{ID: 1}))
	f.Add(mustSubBinary(f, Subscription{ID: 2, Preds: []Predicate{
		{Attr: "", Interval: FullRange()},
		{Attr: "a", Interval: Interval{Lo: nan, Hi: 1}},
		{Attr: "a", Interval: Interval{Lo: 3, Hi: 2}},
	}}))
	f.Add(mustEventBinary(f, Event{Attrs: map[string]float64{"a": 1}}))
	f.Add([]byte{binMagic, binKindSub, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		codectest.Check(t, raw, false, subscriptionFormat, errTruncated)
	})
}

// TestCodecRejectsOversizeFields: lengths that would wrap the frame's
// prefixes are rejected at encode time instead of emitting corrupt frames.
func TestCodecRejectsOversizeFields(t *testing.T) {
	huge := string(make([]byte, 70000))
	if _, err := appendEvent(nil, Event{Attrs: map[string]float64{huge: 1}}); err == nil {
		t.Fatal("oversize attribute name encoded without error")
	}
	s := Subscription{ID: 1, Preds: []Predicate{{Attr: huge, Interval: Interval{Lo: 0, Hi: 1}}}}
	if _, err := appendSubscription(nil, s); err == nil {
		t.Fatal("oversize predicate attribute encoded without error")
	}
}

// BenchmarkDecodeEvent decodes one publication of the default workload:
// what the broker opens per Publish.
func BenchmarkDecodeEvent(b *testing.B) {
	raw := mustEventBinary(b, NewWorkload(DefaultWorkload(11)).NextEvent())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeEvent(raw); err != nil {
			b.Fatal(err)
		}
	}
}
