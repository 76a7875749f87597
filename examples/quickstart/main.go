// Quickstart: build a secure container image in a trusted environment,
// push it through an untrusted registry, execute it on an untrusted SGX
// node, and exchange encrypted messages with it — the complete Figure 2
// workflow of the SecureCloud paper — then serve it replicated on the
// application plane: every replica boots through the container path
// (attest → SCF release → service-key release → subscribe) and no key
// ever leaves the owner except to a verified enclave.
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"log"
	"strings"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/fsshield"
	"securecloud/internal/image"
	"securecloud/internal/microsvc"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
)

func main() {
	// The attestation service is the one party both sides trust (the
	// Intel Attestation Service analogue).
	svc := attest.NewService()

	// The application owner's trusted environment: a signing key, the CAS
	// holding the SCFs, the SCONE client, and the application root key.
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	cas := sconert.NewCAS(svc)
	owner := container.NewSCONEClient(priv, cas)
	appRoot, err := cryptbox.NewRandomKey()
	if err != nil {
		log.Fatal(err)
	}
	// The untrusted cloud: a registry and an event bus.
	reg := registry.New()
	bus := eventbus.New()

	// 1. Build + deploy a micro-service with an encrypted config file: the
	// image is signed, its protected files encrypted, its SCF registered
	// with the CAS, and only then is it pushed to the registry.
	plain, err := image.NewBuilder("demo/hello", "1.0").
		AddLayer(map[string][]byte{
			container.EntrypointPath: []byte("HELLO-MICROSERVICE-BINARY"),
			"/etc/greeting":          []byte("hello from inside the enclave"),
		}).
		SetEntrypoint(container.EntrypointPath).
		SetEnv("MODE", "demo").
		Build(priv)
	if err != nil {
		log.Fatal(err)
	}
	secured, secrets, err := owner.BuildSecure(plain, map[string]fsshield.Mode{
		"/etc/greeting": fsshield.ModeEncrypted,
	})
	if err != nil {
		log.Fatal(err)
	}
	scf, err := owner.Deploy(secured, secrets, []string{"serve"}, map[string]string{"MODE": "demo"})
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployed:", secured.Ref())

	// 2. An untrusted SGX node pulls, verifies, attests and boots the
	// container. The SCF (stream keys, FS protection key) travels over the
	// attested channel; the node never sees it.
	node, err := container.LaunchNode(svc, "node-00", reg, enclave.Config{})
	if err != nil {
		log.Fatal(err)
	}
	c, err := node.Run("demo/hello", "1.0", cas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running:", c.ID, "state:", c.State())

	// 3. Inside the enclave the protected file is plaintext.
	greeting, err := c.Runtime.FS().ReadFile("/etc/greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read inside enclave:", string(greeting))

	// 4. The container writes to stdout; the host stores only ciphertext,
	// the owner decrypts with the SCF.
	if err := c.Runtime.Stdout([]byte("service ready")); err != nil {
		log.Fatal(err)
	}
	lines, err := container.ReadStdout(node.Host, scf)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range lines {
		fmt.Println("owner read from encrypted stdout:", string(l))
	}

	// 5. Resource accounting for billing.
	u := c.Usage()
	fmt.Printf("usage: %d simulated cycles, %d MiB enclave, %d syscalls, %d page faults\n",
		u.CPUCycles, u.MemoryBytes>>20, u.Syscalls, u.PageFaults)

	// 6. The same image, replicated on the application plane. The owner
	// registers the service keys with a KeyBroker under the image's
	// expected measurement; each replica then launches on its own fresh
	// node through the full container path and fetches its keys over the
	// attested channel. There is no other way onto the plane.
	kb := attest.NewKeyBroker(svc)
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		log.Fatal(err)
	}
	keys, err := microsvc.NewServiceKeys(appRoot, "demo/hello", "hello/req", "hello/resp")
	if err != nil {
		log.Fatal(err)
	}
	kb.Register("demo/hello", attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, keys)

	// The replicas share one node-local blob cache: the first boot pulls
	// the image's chunks from the registry, every later boot is warm.
	cache := container.NewBlobCache()
	rs, err := microsvc.NewContainerReplicaSet(bus, svc, kb, "demo/hello",
		func(req []byte) ([]byte, error) {
			return []byte("HELLO, " + strings.ToUpper(string(req))), nil
		},
		microsvc.ReplicaSetConfig{Replicas: 2, InTopic: "hello/req", OutTopic: "hello/resp"},
		microsvc.ContainerSpec{Registry: reg, CAS: cas, Image: "demo/hello", Tag: "1.0", Cache: cache})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Stop()
	cs := cache.Stats()
	fmt.Printf("data plane: %d chunks (%d KiB) fetched once, %d warm-boot chunk hits across replicas\n",
		cs.Stores, cs.Bytes>>10, cs.Hits)

	client, err := microsvc.NewPlaneClient(bus, "demo/hello", keys, "hello/req", "hello/resp")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	var reqs []microsvc.PlaneRequest
	for _, who := range []string{"alice", "bob", "carol"} {
		reqs = append(reqs, microsvc.PlaneRequest{Key: "user/" + who, Body: []byte(who)})
	}
	if _, err := client.SendTenantIDs("", reqs); err != nil {
		log.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		log.Fatal(err)
	}
	replies, err := client.Poll(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range replies {
		fmt.Printf("plane reply for %s: %s\n", r.Key, r.Body)
	}
	tot := rs.Totals()
	fmt.Printf("plane: %d replicas served %d requests; %d key releases, all against verified quotes\n",
		tot.Live, tot.Served, kb.Released("demo/hello"))
}
