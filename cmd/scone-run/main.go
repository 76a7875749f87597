// Command scone-run demonstrates the complete secure-container workflow
// of paper §V-A (Figure 2) from the command line: build a secure image,
// push it through an untrusted registry (optionally over HTTP), pull it on
// an untrusted SGX node, attest, inject the SCF, execute, and read the
// container's encrypted output. With -http the node pulls through the
// registry's HTTP API chunk by chunk, verifying every chunk. With -tamper,
// the registry corrupts the image after push, and the run must fail
// verification.
//
// Usage:
//
//	scone-run [-http] [-tamper]
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/enclave"
	"securecloud/internal/fsshield"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
)

func main() {
	useHTTP := flag.Bool("http", false, "push and pull the image over the registry's HTTP API")
	tamper := flag.Bool("tamper", false, "corrupt the image in the registry after push (must be detected)")
	flag.Parse()

	// The owner's trusted environment: a signing key, the CAS, the SCONE
	// client. The attestation service is the one party both sides trust.
	svc := attest.NewService()
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	check(err)
	cas := sconert.NewCAS(svc)
	owner := container.NewSCONEClient(priv, cas)

	fmt.Println("[owner ] building secure image demo/scone-run:1.0")
	plain, err := image.NewBuilder("demo/scone-run", "1.0").
		AddLayer(map[string][]byte{
			container.EntrypointPath: []byte("SCONE-RUN-DEMO-BINARY"),
			"/etc/secret.conf":       []byte("api-key=SECRET-123"),
			"/etc/public.conf":       []byte("log-level=info"),
		}).
		SetEntrypoint(container.EntrypointPath).
		Build(priv)
	check(err)
	secured, secrets, err := owner.BuildSecure(plain, map[string]fsshield.Mode{
		"/etc/secret.conf": fsshield.ModeEncrypted,
		"/etc/public.conf": fsshield.ModeIntegrityOnly,
	})
	check(err)
	scf, err := owner.Deploy(secured, secrets, []string{"serve", "--port=8443"}, nil)
	check(err)

	// The untrusted registry, reached in-process or over HTTP.
	reg := registry.New()
	var src container.PullSource = reg
	if *useHTTP {
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		client := registry.NewClient(srv.URL)
		fmt.Println("[owner ] pushing image over the registry HTTP API")
		check(client.Push(secured))
		src = client
	} else {
		check(reg.Push(secured))
	}

	if *tamper {
		fmt.Println("[attack] registry operator corrupts the entrypoint layer")
		reg.TamperLayer(secured.Manifest.LayerDigests[0], func(l *image.Layer) {
			l.Files[container.EntrypointPath] = []byte("BACKDOORED")
		})
	}

	// An untrusted SGX node pulls, verifies, attests and boots.
	node, err := container.LaunchNode(svc, "node-00", src, enclave.Config{})
	check(err)
	c, err := node.Run("demo/scone-run", "1.0", cas)
	if *tamper {
		if err == nil {
			fmt.Println("FATAL: tampered image executed")
			os.Exit(1)
		}
		fmt.Println("[cloud ] execution refused:", err)
		return
	}
	check(err)
	if *useHTTP {
		ps := node.LastPullStats()
		fmt.Printf("[cloud ] HTTP pull: %d layers, %d chunks (%d bytes), each verified\n", ps.Layers, ps.ChunksFetch, ps.BytesFetched)
	}
	fmt.Printf("[cloud ] container %s running on node-00 (TCB %d MiB)\n",
		c.ID, c.Runtime.TCBBytes()>>20)

	secret, err := c.Runtime.FS().ReadFile("/etc/secret.conf")
	check(err)
	fmt.Println("[enclave] read protected config:", string(secret))

	check(c.Runtime.Stdout([]byte("listening on :8443")))
	lines, err := container.ReadStdout(node.Host, scf)
	check(err)
	for _, l := range lines {
		fmt.Println("[owner ] decrypted stdout:", string(l))
	}
	u := c.Usage()
	fmt.Printf("[billing] %v, %d syscalls, %d page faults, %d AEX\n",
		u.CPUCycles, u.Syscalls, u.PageFaults, u.AEX)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scone-run:", err)
		os.Exit(1)
	}
}
