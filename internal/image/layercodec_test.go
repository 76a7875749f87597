package image

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"securecloud/internal/codec"
	"securecloud/internal/codec/codectest"
	"securecloud/internal/sim"
)

func TestLayerCodecRoundTrip(t *testing.T) {
	l := Layer{Files: map[string][]byte{
		"/bin/app":        []byte("BINARY\x00WITH\x00NULS"),
		"/etc/empty":      nil,
		"/etc/model.cfg":  []byte("sensitivity=0.97"),
		"/data/blob\x00x": bytes.Repeat([]byte{0, 1, 2}, 1000),
	}}
	got, err := DecodeLayer(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != l.Digest() {
		t.Fatal("round trip changed the layer digest")
	}
	if len(got.Files) != len(l.Files) {
		t.Fatalf("round trip has %d files, want %d", len(got.Files), len(l.Files))
	}
	for p, want := range l.Files {
		if !bytes.Equal(got.Files[p], want) {
			t.Fatalf("file %q mismatch", p)
		}
	}
}

func TestLayerEncodeDeterministic(t *testing.T) {
	l := Layer{Files: map[string][]byte{"/a": []byte("1"), "/b": []byte("2"), "/c": []byte("3")}}
	first := l.Encode()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(l.Encode(), first) {
			t.Fatal("Encode not deterministic across calls")
		}
	}
}

func TestPropLayerCodec(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		rng := sim.NewRand(seed)
		l := Layer{Files: make(map[string][]byte)}
		for i := 0; i < int(nFiles%16); i++ {
			name := make([]byte, 1+rng.Intn(20))
			rng.Read(name)
			data := make([]byte, rng.Intn(500))
			rng.Read(data)
			l.Files["/"+string(name)] = data
		}
		got, err := DecodeLayer(l.Encode())
		if err != nil {
			return false
		}
		return got.Digest() == l.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// layerFormat is the layer encoding under the shared decode property. A
// layer may end after any whole entry, so only the prefixes that cut its
// last entry must be rejected.
func layerFormat(b []byte) ([]byte, int, int, error) {
	l, err := DecodeLayer(b)
	if err != nil {
		return nil, 0, 0, err
	}
	last := 0
	if len(l.Files) > 0 {
		rest := maps.Clone(l.Files)
		delete(rest, slices.Max(slices.Collect(maps.Keys(rest))))
		last = len(Layer{Files: rest}.Encode()) + 1
	}
	return l.Encode(), last, len(b), nil
}

// FuzzDecodeLayer: the layer encoding satisfies the shared decode property:
// every rejection wraps codec.ErrMalformed, an accepted layer re-encodes
// to its own bytes (so no path appears twice), and cutting its last entry
// short or adding a byte is an error.
func FuzzDecodeLayer(f *testing.F) {
	l := Layer{Files: map[string][]byte{"/bin/app": []byte("code\x00"), "/etc/empty": nil}}
	f.Add(l.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // absurd length
	f.Add([]byte{2, '/', 'a', 1, 'x', 2, '/', 'a', 1, 'y'})                   // a path twice
	f.Add(append(l.Encode(), l.Encode()...))
	f.Fuzz(func(t *testing.T, b []byte) {
		codectest.Check(t, b, false, layerFormat, codec.ErrMalformed)
	})
}
