package container

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/fsshield"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
	"securecloud/internal/shield"
)

// cloudNode bundles everything one untrusted cloud node runs.
type cloudNode struct {
	platform *enclave.Platform
	host     *shield.Host
	engine   *Engine
}

// trustedSide bundles what stays in the image owner's trusted environment.
type trustedSide struct {
	svc    *attest.Service
	cas    *sconert.CAS
	client *SCONEClient
	priv   ed25519.PrivateKey
}

func setup(t *testing.T) (*cloudNode, *trustedSide, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	svc := attest.NewService()
	p := enclave.NewPlatform(enclave.Config{})
	q, err := svc.Provision(p, "cloud-node-1")
	if err != nil {
		t.Fatal(err)
	}
	host := shield.NewHost()
	node := &cloudNode{platform: p, host: host, engine: NewEngine(p, host, reg, q)}

	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cas := sconert.NewCAS(svc)
	trusted := &trustedSide{svc: svc, cas: cas, client: NewSCONEClient(priv, cas), priv: priv}
	return node, trusted, reg
}

func buildPlainImage(t *testing.T, priv ed25519.PrivateKey) *image.Image {
	t.Helper()
	img, err := image.NewBuilder("smartgrid/theft-detector", "1.0").
		AddLayer(map[string][]byte{
			EntrypointPath:   []byte("THEFT-DETECTOR-BINARY-v1"),
			"/etc/model.cfg": []byte("sensitivity=0.97"),
		}).
		SetEntrypoint(EntrypointPath).
		SetEnclaveSize(1 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSecureContainerWorkflow is the Figure 2 integration test: build a
// secure image in the trusted environment, push it through the untrusted
// registry, pull and execute it on the untrusted node, and communicate
// with it over encrypted streams.
func TestSecureContainerWorkflow(t *testing.T) {
	node, trusted, reg := setup(t)

	// 1. Trusted: build + secure the image.
	plain := buildPlainImage(t, trusted.priv)
	secured, secrets, err := trusted.client.BuildSecure(plain, map[string]fsshield.Mode{
		"/etc/model.cfg": fsshield.ModeEncrypted,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2. Trusted: register the SCF with the CAS.
	scf, err := trusted.client.Deploy(secured, secrets, []string{"serve"}, map[string]string{"MODE": "prod"})
	if err != nil {
		t.Fatal(err)
	}
	// 3. Push to the untrusted registry.
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}
	// 4. Untrusted node: pull + execute.
	c, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateRunning {
		t.Fatal("container not running")
	}
	// 5. Inside the enclave: read the protected config.
	cfg, err := c.Runtime.FS().ReadFile("/etc/model.cfg")
	if err != nil {
		t.Fatal(err)
	}
	if string(cfg) != "sensitivity=0.97" {
		t.Fatalf("config = %q", cfg)
	}
	if c.Runtime.SCF().Env["MODE"] != "prod" {
		t.Fatal("SCF env lost")
	}
	// 6. Secure communication: stdout is ciphertext on the host, plaintext
	// for the SCF holder.
	if err := c.Runtime.Stdout([]byte("theft-score meter-42 0.99")); err != nil {
		t.Fatal(err)
	}
	for _, rec := range node.host.Records("stdio/stdout") {
		if bytes.Contains(rec, []byte("theft-score")) {
			t.Fatal("stdout plaintext visible to the cloud")
		}
	}
	lines, err := ReadStdout(node.host, scf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || string(lines[0]) != "theft-score meter-42 0.99" {
		t.Fatalf("deployer read %q", lines)
	}
	c.Stop()
	if c.State() != StateStopped {
		t.Fatal("container did not stop")
	}
}

func TestRegistryTamperingBlocksExecution(t *testing.T) {
	node, trusted, reg := setup(t)
	secured := deploySecured(t, trusted, reg)
	reg.TamperLayer(secured.Manifest.LayerDigests[0], func(l *image.Layer) {
		l.Files[EntrypointPath] = []byte("BACKDOORED-BINARY")
	})
	if _, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas); err == nil {
		t.Fatal("engine ran an image tampered in the registry")
	}
}

// deploySecured builds the test image with its config encrypted, registers
// the SCF with the trusted side's CAS and pushes the image.
func deploySecured(t *testing.T, trusted *trustedSide, reg *registry.Registry) *image.Image {
	t.Helper()
	secured, secrets, err := trusted.client.BuildSecure(buildPlainImage(t, trusted.priv), map[string]fsshield.Mode{
		"/etc/model.cfg": fsshield.ModeEncrypted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trusted.client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}
	return secured
}

// TestSecretsNeverReachRegistry: a protected file crosses the untrusted
// registry only as ciphertext.
func TestSecretsNeverReachRegistry(t *testing.T) {
	_, trusted, reg := setup(t)
	deploySecured(t, trusted, reg)
	img, err := reg.Pull("smartgrid/theft-detector", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range img.Layers {
		for path, data := range l.Files {
			if bytes.Contains(data, []byte("sensitivity=0.97")) {
				t.Fatalf("protected config visible in registry at %s", path)
			}
		}
	}
}

// TestForeignCASCannotBootImage: a CAS that never saw the image's SCF —
// another owner's — cannot boot it.
func TestForeignCASCannotBootImage(t *testing.T) {
	node, trusted, reg := setup(t)
	deploySecured(t, trusted, reg)
	foreign := sconert.NewCAS(trusted.svc)
	if _, err := node.engine.Run("smartgrid/theft-detector", "1.0", foreign); !errors.Is(err, sconert.ErrNoSCF) {
		t.Fatalf("container booted against a CAS that never saw the SCF: %v", err)
	}
	if _, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas); err != nil {
		t.Fatalf("owner's CAS: %v", err)
	}
}

func TestModifiedCodeDeniedSCF(t *testing.T) {
	// Even if the attacker consistently re-signs a modified image (so
	// digests verify), the enclave measurement changes and the CAS refuses
	// the SCF.
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	secured, secrets, err := trusted.client.BuildSecure(plain, map[string]fsshield.Mode{
		"/etc/model.cfg": fsshield.ModeEncrypted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trusted.client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Attacker rebuilds the image with different code under their own key.
	_, attackerKey, _ := ed25519.GenerateKey(rand.Reader)
	files := secured.Flatten()
	files[EntrypointPath] = []byte("BACKDOORED-BINARY")
	evil, err := image.NewBuilder("smartgrid/theft-detector", "1.0").
		AddLayer(files).
		SetEnclaveSize(1 << 20).
		Build(attackerKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(evil); err != nil {
		t.Fatal(err)
	}
	if _, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas); !errors.Is(err, sconert.ErrNoSCF) {
		t.Fatalf("backdoored image got an SCF: %v", err)
	}
}

func TestRunPlainImageWithoutProtection(t *testing.T) {
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	if err := reg.Push(plain); err != nil {
		t.Fatal(err)
	}
	m, err := ExpectedMeasurement(plain)
	if err != nil {
		t.Fatal(err)
	}
	scf, _ := sconert.NewSCF(cryptbox.Key{}, cryptbox.Digest{}, nil, nil)
	trusted.cas.Register(attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, scf)
	c, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	if c.Runtime.FS() != nil {
		t.Fatal("plain image got a protected FS")
	}
}

func TestRunMissingImage(t *testing.T) {
	node, trusted, _ := setup(t)
	if _, err := node.engine.Run("ghost", "1.0", trusted.cas); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRunImageWithoutEntrypoint(t *testing.T) {
	node, trusted, reg := setup(t)
	img, err := image.NewBuilder("no-entry", "1").
		AddLayer(map[string][]byte{"/etc/only-config": []byte("x")}).
		Build(trusted.priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(img); err != nil {
		t.Fatal(err)
	}
	if _, err := node.engine.Run("no-entry", "1", trusted.cas); !errors.Is(err, ErrNoEntrypoint) {
		t.Fatalf("err = %v, want ErrNoEntrypoint", err)
	}
}

func TestBuildSecureRefusesEncryptedEntrypoint(t *testing.T) {
	_, trusted, _ := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	_, _, err := trusted.client.BuildSecure(plain, map[string]fsshield.Mode{
		EntrypointPath: fsshield.ModeEncrypted,
	})
	if !errors.Is(err, ErrEntrypointEncrypted) {
		t.Fatalf("err = %v, want ErrEntrypointEncrypted", err)
	}
}

func TestExpectedMeasurementMatchesEngine(t *testing.T) {
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	want, err := ExpectedMeasurement(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(plain); err != nil {
		t.Fatal(err)
	}
	scf, _ := sconert.NewSCF(cryptbox.Key{}, cryptbox.Digest{}, nil, nil)
	trusted.cas.Register(attest.Policy{AllowedMREnclave: []cryptbox.Digest{want}}, scf)
	c, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Runtime.Enclave().Measurement()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("engine measurement differs from client prediction")
	}
}

func TestUsageAccounting(t *testing.T) {
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	if err := reg.Push(plain); err != nil {
		t.Fatal(err)
	}
	m, _ := ExpectedMeasurement(plain)
	scf, _ := sconert.NewSCF(cryptbox.Key{}, cryptbox.Digest{}, nil, nil)
	trusted.cas.Register(attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, scf)
	c, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Runtime.Stdout([]byte("x"))
	u := c.Usage()
	if u.CPUCycles == 0 || u.MemoryBytes == 0 || u.Syscalls == 0 {
		t.Fatalf("empty usage record: %+v", u)
	}
}

func TestTCBAccounting(t *testing.T) {
	// §III-A: only the application logic and thin runtime live inside the
	// TCB. The TCB must equal the enclave size and stay far below the
	// "whole node" footprint a conventional TCB would have.
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	if err := reg.Push(plain); err != nil {
		t.Fatal(err)
	}
	m, _ := ExpectedMeasurement(plain)
	scf, _ := sconert.NewSCF(cryptbox.Key{}, cryptbox.Digest{}, nil, nil)
	trusted.cas.Register(attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, scf)
	c, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Runtime.TCBBytes(); got != 1<<20 {
		t.Fatalf("TCB = %d bytes, want the 1 MiB enclave", got)
	}
}

func TestEngineListsContainers(t *testing.T) {
	node, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	if err := reg.Push(plain); err != nil {
		t.Fatal(err)
	}
	m, _ := ExpectedMeasurement(plain)
	scf, _ := sconert.NewSCF(cryptbox.Key{}, cryptbox.Digest{}, nil, nil)
	trusted.cas.Register(attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, scf)
	for i := 0; i < 3; i++ {
		if _, err := node.engine.Run("smartgrid/theft-detector", "1.0", trusted.cas); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(node.engine.Containers()); got != 3 {
		t.Fatalf("Containers() = %d, want 3", got)
	}
}

// TestLaunchNodeBootsReplica: the application plane's node-allocation
// helper yields an engine that runs the full secure boot sequence, and
// each launched node is its own simulated platform.
func TestLaunchNodeBootsReplica(t *testing.T) {
	_, trusted, reg := setup(t)
	plain := buildPlainImage(t, trusted.priv)
	secured, secrets, err := trusted.client.BuildSecure(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trusted.client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}

	a, err := LaunchNode(trusted.svc, "plane/r0001", reg, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LaunchNode(trusted.svc, "plane/r0002", reg, enclave.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Platform == b.Platform {
		t.Fatal("launched nodes share a platform")
	}
	if _, err := LaunchNode(trusted.svc, "plane/r0001", reg, enclave.Config{}); err == nil {
		t.Fatal("duplicate platform ID accepted")
	}
	c, err := a.Run(secured.Manifest.Name, secured.Manifest.Tag, trusted.cas)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateRunning {
		t.Fatalf("state = %v", c.State())
	}
	c.Stop()
}
