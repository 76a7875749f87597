// Package attest implements remote attestation for simulated SGX enclaves,
// mirroring the Intel SGX attestation architecture: a quoting enclave on
// each platform converts locally verifiable reports into remotely
// verifiable quotes, and an attestation service (the analogue of the Intel
// Attestation Service, IAS) validates quotes for relying parties.
//
// SecureCloud relies on this chain to release secrets to containers: the
// startup configuration file (SCF) with file-system keys and stream keys is
// delivered only to an enclave whose identity has been verified (paper
// §V-A). Signing uses Ed25519 from the standard library; platforms are
// provisioned with their attestation key pair at manufacture time, which
// the Service records like Intel's provisioning service records EPID group
// membership.
package attest

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// Errors returned by quoting and verification.
var (
	ErrUnknownPlatform = errors.New("attest: unknown platform")
	ErrBadReport       = errors.New("attest: local report verification failed")
	ErrBadSignature    = errors.New("attest: quote signature invalid")
	ErrPolicy          = errors.New("attest: enclave identity not allowed by policy")
)

// Quote is a remotely verifiable attestation statement.
type Quote struct {
	PlatformID string
	Report     enclave.Report
	Signature  []byte
}

// signedBody returns the bytes covered by the quote signature. The local
// MAC is excluded: it is platform-secret keyed and meaningless remotely.
func (q Quote) signedBody() []byte {
	body := q.Report
	body.MAC = [cryptbox.MACSize]byte{}
	return append([]byte(q.PlatformID+"|"), body.Marshal()...)
}

// Quoter is the quoting enclave of one platform. It holds the platform's
// attestation private key and turns local reports into quotes after
// verifying them against the platform report key.
type Quoter struct {
	platform   *enclave.Platform
	platformID string
	priv       ed25519.PrivateKey
}

// Quote verifies a local report and signs it into a Quote.
func (q *Quoter) Quote(r enclave.Report) (Quote, error) {
	if !q.platform.VerifyReport(r) {
		return Quote{}, ErrBadReport
	}
	out := Quote{PlatformID: q.platformID, Report: r}
	out.Signature = ed25519.Sign(q.priv, out.signedBody())
	return out, nil
}

// Service is the attestation verification service trusted by relying
// parties (the IAS analogue). It knows the attestation public key of every
// provisioned platform.
type Service struct {
	mu        sync.RWMutex
	platforms map[string]ed25519.PublicKey
	revoked   map[string]bool
}

// NewService returns an empty attestation service.
func NewService() *Service {
	return &Service{
		platforms: make(map[string]ed25519.PublicKey),
		revoked:   make(map[string]bool),
	}
}

// Provision generates an attestation key pair for platform p, registers the
// public half with the service under platformID, and returns the platform's
// quoting enclave. This models the one-time provisioning protocol run at
// platform manufacture.
func (s *Service) Provision(p *enclave.Platform, platformID string) (*Quoter, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: generating attestation key: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.platforms[platformID]; dup {
		return nil, fmt.Errorf("attest: platform %q already provisioned", platformID)
	}
	s.platforms[platformID] = pub
	return &Quoter{platform: p, platformID: platformID, priv: priv}, nil
}

// Revoke marks a platform's attestation key as revoked (e.g. after a
// microcode compromise); its quotes no longer verify.
func (s *Service) Revoke(platformID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revoked[platformID] = true
}

// IsRevoked reports whether a platform's attestation key has been revoked.
// Relying parties that cache verification results must re-check this on
// every release decision: revocation must take effect immediately, not at
// the next cache miss.
func (s *Service) IsRevoked(platformID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.revoked[platformID]
}

// Verdict is the outcome of quote verification.
type Verdict struct {
	PlatformID string
	MREnclave  cryptbox.Digest
	MRSigner   cryptbox.Digest
	// SVN is the enclave's security version (ISVSVN).
	SVN uint16
	// Data echoes the report data (typically a channel binding).
	Data [enclave.ReportDataSize]byte
}

// Verify validates a quote and returns the attested identity.
func (s *Service) Verify(q Quote) (Verdict, error) {
	s.mu.RLock()
	pub, ok := s.platforms[q.PlatformID]
	revoked := s.revoked[q.PlatformID]
	s.mu.RUnlock()
	if !ok {
		return Verdict{}, ErrUnknownPlatform
	}
	if revoked {
		return Verdict{}, fmt.Errorf("%w: platform %q revoked", ErrBadSignature, q.PlatformID)
	}
	if !ed25519.Verify(pub, q.signedBody(), q.Signature) {
		return Verdict{}, ErrBadSignature
	}
	return Verdict{
		PlatformID: q.PlatformID,
		MREnclave:  q.Report.MREnclave,
		MRSigner:   q.Report.MRSigner,
		SVN:        q.Report.SVN,
		Data:       q.Report.Data,
	}, nil
}

// Policy is a relying party's allow-list over attested identities. A zero
// policy allows nothing; add at least one measurement or signer. MinSVN
// additionally rejects enclaves whose security version predates the
// required one — SGX's TCB-recovery mechanism: after a vulnerability fix,
// relying parties raise MinSVN and old builds stop receiving secrets.
type Policy struct {
	AllowedMREnclave []cryptbox.Digest
	AllowedMRSigner  []cryptbox.Digest
	MinSVN           uint16
}

// Check returns nil when the verdict satisfies the policy: either the exact
// measurement or the signer is allow-listed, and the security version is
// recent enough.
func (p Policy) Check(v Verdict) error {
	if v.SVN < p.MinSVN {
		return fmt.Errorf("%w: svn %d below required %d", ErrPolicy, v.SVN, p.MinSVN)
	}
	for _, m := range p.AllowedMREnclave {
		if v.MREnclave == m {
			return nil
		}
	}
	for _, s := range p.AllowedMRSigner {
		if v.MRSigner == s {
			return nil
		}
	}
	return fmt.Errorf("%w: mrenclave=%s mrsigner=%s", ErrPolicy, v.MREnclave, v.MRSigner)
}

// AttestEnclave is the full client-side flow: create a report carrying
// userData inside e, quote it with the platform quoter, verify it at the
// service, and check the relying party's policy.
func AttestEnclave(e *enclave.Enclave, q *Quoter, s *Service, policy Policy, userData []byte) (Verdict, error) {
	r, err := e.CreateReport(userData)
	if err != nil {
		return Verdict{}, err
	}
	quote, err := q.Quote(r)
	if err != nil {
		return Verdict{}, err
	}
	v, err := s.Verify(quote)
	if err != nil {
		return Verdict{}, err
	}
	if err := policy.Check(v); err != nil {
		return Verdict{}, err
	}
	return v, nil
}
