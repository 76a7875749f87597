package image

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"testing/quick"

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

func TestDecodeLayerRejectsMalformed(t *testing.T) {
	l := Layer{Files: map[string][]byte{"/bin/app": []byte("code")}}
	enc := l.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeLayer(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// A forged huge length prefix must not allocate.
	if _, err := DecodeLayer([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("absurd length prefix decoded")
	}
	// Duplicate paths cannot smuggle content past digest checks.
	dup := append(append([]byte(nil), enc...), enc...)
	if _, err := DecodeLayer(dup); err == nil {
		t.Fatal("duplicate path decoded")
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

// FuzzDecodeLayer: DecodeLayer never panics; an accepted layer survives
// Encode then DecodeLayer unchanged; and in its encoding, cutting the last
// entry short or repeating it is an error.
func FuzzDecodeLayer(f *testing.F) {
	f.Add(Layer{Files: map[string][]byte{"/bin/app": []byte("code\x00"), "/etc/empty": nil}}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{2, '/', 'a', 1, 'x', 2, '/', 'a', 1, 'y'})
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLayer(b)
		if err != nil {
			return
		}
		enc := l.Encode()
		got, err := DecodeLayer(enc)
		if err != nil {
			t.Fatalf("re-encoded layer rejected: %v", err)
		}
		if !maps.EqualFunc(got.Files, l.Files, bytes.Equal) {
			t.Fatalf("Encode then DecodeLayer changed the layer: %q -> %q", l.Files, got.Files)
		}
		if len(l.Files) == 0 {
			return
		}
		// The last entry in encoding order starts where the encoding of
		// the layer without it ends.
		rest := maps.Clone(l.Files)
		delete(rest, slices.Max(slices.Collect(maps.Keys(rest))))
		last := len(Layer{Files: rest}.Encode())
		for cut := last + 1; cut < len(enc); cut++ {
			if _, err := DecodeLayer(enc[:cut]); err == nil {
				t.Fatalf("encoding cut to %d of %d bytes decoded", cut, len(enc))
			}
		}
		if _, err := DecodeLayer(append(enc, enc[last:]...)); err == nil {
			t.Fatal("repeated last entry decoded")
		}
	})
}
