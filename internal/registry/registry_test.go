package registry

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/image"
)

func testImage(t *testing.T, name, tag string) *image.Image {
	t.Helper()
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.NewBuilder(name, tag).
		AddLayer(map[string][]byte{"/bin/app": []byte("code-" + name)}).
		SetEntrypoint("/bin/app").
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPushPullRoundTrip(t *testing.T) {
	r := New()
	img := testImage(t, "svc/a", "1.0")
	if err := r.Push(img); err != nil {
		t.Fatal(err)
	}
	got, err := r.Pull("svc/a", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("pulled image failed verification: %v", err)
	}
	if got.Ref() != "svc/a:1.0" {
		t.Fatalf("Ref = %q", got.Ref())
	}
}

func TestPullMissing(t *testing.T) {
	r := New()
	if _, err := r.Pull("ghost", "latest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPushRejectsInconsistentDigests(t *testing.T) {
	r := New()
	img := testImage(t, "svc/a", "1.0")
	img.Layers[0].Files["/bin/app"] = []byte("swapped")
	if err := r.Push(img); err == nil {
		t.Fatal("honest registry ingested inconsistent image")
	}
}

func TestLayerDedupAcrossImages(t *testing.T) {
	r := New()
	_, priv, _ := ed25519.GenerateKey(rand.Reader)
	shared := map[string][]byte{"/lib/base": []byte("shared-layer")}
	a, _ := image.NewBuilder("a", "1").AddLayer(shared).AddLayer(map[string][]byte{"/bin/app": []byte("A")}).Build(priv)
	b, _ := image.NewBuilder("b", "1").AddLayer(shared).AddLayer(map[string][]byte{"/bin/app": []byte("B")}).Build(priv)
	if err := r.Push(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(b); err != nil {
		t.Fatal(err)
	}
	if len(r.layers) != 3 {
		t.Fatalf("stored %d layers, want 3 (base layer deduplicated)", len(r.layers))
	}
}

func TestClientDetectsTamperedLayer(t *testing.T) {
	r := New()
	img := testImage(t, "svc/a", "1.0")
	if err := r.Push(img); err != nil {
		t.Fatal(err)
	}
	if !r.TamperLayer(img.Manifest.LayerDigests[0], func(l *image.Layer) {
		l.Files["/bin/app"] = []byte("BACKDOORED")
	}) {
		t.Fatal("tamper hook missed layer")
	}
	got, err := r.Pull("svc/a", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err == nil {
		t.Fatal("client accepted image tampered in the registry")
	}
}

func TestClientDetectsTamperedManifest(t *testing.T) {
	r := New()
	img := testImage(t, "svc/a", "1.0")
	if err := r.Push(img); err != nil {
		t.Fatal(err)
	}
	r.TamperManifest("svc/a:1.0", func(m *image.Manifest) {
		m.Config.Entrypoint = []string{"/bin/evil"}
	})
	got, err := r.Pull("svc/a", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err == nil {
		t.Fatal("client accepted manifest tampered in the registry")
	}
}

func TestList(t *testing.T) {
	r := New()
	_ = r.Push(testImage(t, "a", "1"))
	_ = r.Push(testImage(t, "b", "2"))
	if got := len(r.List()); got != 2 {
		t.Fatalf("List returned %d refs, want 2", got)
	}
}

// TestHTTPPushPull: an image pushed over HTTP comes back over HTTP only
// chunk-granular — its signed manifest, each layer's chunk manifest and
// every chunk byte-identical to the in-process registry's — and the
// whole-image GET is gone.
func TestHTTPPushPull(t *testing.T) {
	r := New()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	img := testImage(t, "svc/http", "2.0")
	if err := c.Push(img); err != nil {
		t.Fatal(err)
	}
	m, err := c.Manifest("svc/http", "2.0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, img.Manifest) {
		t.Fatalf("manifest over HTTP = %+v, want %+v", m, img.Manifest)
	}
	for _, d := range m.LayerDigests {
		lm, err := c.LayerManifest(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range lm.Leaves {
			got, err := c.Blob(leaf)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := r.Blob(leaf); !bytes.Equal(got, want) {
				t.Fatalf("chunk %s differs over HTTP", leaf)
			}
		}
	}
	resp, err := http.Get(srv.URL + "/v2/images/svc/http/2.0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("whole-image GET: got %d, want 405", resp.StatusCode)
	}
}

func TestHTTPPullMissing(t *testing.T) {
	srv := httptest.NewServer(New().Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.Manifest("nope", "1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("manifest: err = %v, want ErrNotFound", err)
	}
	var ghost cryptbox.Digest
	if _, err := c.LayerManifest(ghost); !errors.Is(err, ErrNotFound) {
		t.Fatalf("layer manifest: err = %v, want ErrNotFound", err)
	}
	if _, err := c.Blob(ghost); !errors.Is(err, ErrNotFound) {
		t.Fatalf("blob: err = %v, want ErrNotFound", err)
	}
}

func TestHTTPRejectsRefMismatch(t *testing.T) {
	r := New()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	img := testImage(t, "real-name", "1.0")
	body, _ := json.Marshal(img)
	// PUT under a different name than the manifest claims.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v2/images/other-name/1.0", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("HTTP push with mismatched reference accepted")
	}
}
