// Package sconert implements the SCONE runtime of SecureCloud (paper §IV,
// §V-A): the thin trusted runtime that lives with the application logic
// inside the enclave. It covers the startup configuration file (SCF) that
// carries all secrets of a secure container, the configuration and
// attestation service (CAS) that releases the SCF only to attested
// enclaves over an encrypted channel, and the user-level M:N scheduler
// that lets enclave threads run without world switches.
package sconert

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// SCF is the startup configuration file of one secure container. Quoting
// the paper: "The SCF contains keys to encrypt standard I/O streams, the
// hash and encryption key of the FS protection file, application arguments,
// as well as environment variables. Only an enclave whose identity has been
// verified can access the SCF."
type SCF struct {
	StdinKey  cryptbox.Key `json:"stdin_key"`
	StdoutKey cryptbox.Key `json:"stdout_key"`
	StderrKey cryptbox.Key `json:"stderr_key"`

	// FSProtectionKey decrypts the sealed FS protection file in the image.
	FSProtectionKey cryptbox.Key `json:"fs_protection_key"`
	// FSProtectionHash pins the exact protection file version, closing the
	// rollback window between image build and container start.
	FSProtectionHash cryptbox.Digest `json:"fs_protection_hash"`

	Args []string          `json:"args"`
	Env  map[string]string `json:"env"`
}

// NewSCF builds an SCF with fresh random stream keys.
func NewSCF(fsKey cryptbox.Key, fsHash cryptbox.Digest, args []string, env map[string]string) (SCF, error) {
	var scf SCF
	var err error
	if scf.StdinKey, err = cryptbox.NewRandomKey(); err != nil {
		return SCF{}, err
	}
	if scf.StdoutKey, err = cryptbox.NewRandomKey(); err != nil {
		return SCF{}, err
	}
	if scf.StderrKey, err = cryptbox.NewRandomKey(); err != nil {
		return SCF{}, err
	}
	scf.FSProtectionKey = fsKey
	scf.FSProtectionHash = fsHash
	scf.Args = args
	scf.Env = env
	return scf, nil
}

// Marshal encodes the SCF.
func (s SCF) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSCF decodes an SCF.
func UnmarshalSCF(b []byte) (SCF, error) {
	var s SCF
	if err := json.Unmarshal(b, &s); err != nil {
		return SCF{}, fmt.Errorf("sconert: decoding SCF: %w", err)
	}
	return s, nil
}

// CAS errors.
var (
	ErrNoSCF       = errors.New("sconert: no SCF registered for this enclave identity")
	ErrBadKeyShare = errors.New("sconert: malformed key share in report data")
)

// CAS is the configuration and attestation service: the trusted party
// (operated by the image owner, not the cloud) that hands each secure
// container its SCF after verifying the enclave's identity. Delivery runs
// over an attested ephemeral Diffie-Hellman channel: the enclave binds its
// X25519 public key into the attestation report, so only the attested
// enclave — not the untrusted host that proxies the messages — can decrypt
// the SCF. This models the paper's "TLS-protected connection that is
// established during enclave startup".
type CAS struct {
	svc *attest.Service

	mu      sync.Mutex
	entries []casEntry
}

type casEntry struct {
	policy attest.Policy
	scf    SCF
}

// NewCAS builds a CAS trusting the given attestation service.
func NewCAS(svc *attest.Service) *CAS {
	return &CAS{svc: svc}
}

// Register stores an SCF to be released to enclaves matching policy.
func (c *CAS) Register(policy attest.Policy, scf SCF) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, casEntry{policy: policy, scf: scf})
}

// SCFResponse is the CAS reply: the service's ephemeral public key and the
// SCF sealed under the derived session key.
type SCFResponse struct {
	CASPublicKey []byte `json:"cas_public_key"`
	SealedSCF    []byte `json:"sealed_scf"`
}

// RequestSCF verifies the quote, matches it against registered policies,
// and returns the SCF encrypted to the X25519 public key carried in the
// quote's report data.
func (c *CAS) RequestSCF(q attest.Quote) (SCFResponse, error) {
	verdict, err := c.svc.Verify(q)
	if err != nil {
		return SCFResponse{}, err
	}
	c.mu.Lock()
	var scf *SCF
	for i := range c.entries {
		if c.entries[i].policy.Check(verdict) == nil {
			scf = &c.entries[i].scf
			break
		}
	}
	c.mu.Unlock()
	if scf == nil {
		return SCFResponse{}, ErrNoSCF
	}

	raw, err := scf.Marshal()
	if err != nil {
		return SCFResponse{}, err
	}
	pub, sealed, err := attest.SealToVerdict(verdict, scfChannelLabel, raw)
	if err != nil {
		return SCFResponse{}, fmt.Errorf("%w: %v", ErrBadKeyShare, err)
	}
	return SCFResponse{CASPublicKey: pub, SealedSCF: sealed}, nil
}

// scfChannelLabel names the SCF-release protocol on the shared attested
// sealed channel (attest.SealToVerdict / attest.OpenSealed), keeping its
// key derivation and AAD distinct from other release protocols such as the
// KeyBroker's service-key channel.
const scfChannelLabel = "scf"

// FetchSCF runs the enclave-side startup protocol: generate an ephemeral
// X25519 key inside the enclave, bind its public half into an attestation
// report, quote it, present the quote to the CAS, and decrypt the response.
// The untrusted host only ever relays ciphertext.
func FetchSCF(enc *enclave.Enclave, quoter *attest.Quoter, cas *CAS) (SCF, error) {
	priv, err := attest.NewChannelKey()
	if err != nil {
		return SCF{}, err
	}
	report, err := enc.CreateReport(priv.PublicKey().Bytes())
	if err != nil {
		return SCF{}, err
	}
	quote, err := quoter.Quote(report)
	if err != nil {
		return SCF{}, err
	}
	resp, err := cas.RequestSCF(quote)
	if err != nil {
		return SCF{}, err
	}
	raw, err := attest.OpenSealed(priv, resp.CASPublicKey, resp.SealedSCF, scfChannelLabel)
	if err != nil {
		return SCF{}, fmt.Errorf("%w: %v", ErrBadKeyShare, err)
	}
	return UnmarshalSCF(raw)
}
