// Package certmodel defines the certificate abstraction shared by every
// subsystem in this repository: the server-side compliance analyzers, the
// client-side path-building engine, the CA issuance simulator, and the
// synthetic population generator.
//
// The model deliberately carries exactly the fields that the paper identifies
// as relevant to chain construction (RFC 5280 §4.2): subject and issuer
// distinguished names, the Subject and Authority Key Identifiers, validity,
// KeyUsage, Basic Constraints (CA flag and path-length), Subject Alternative
// Names, and Authority Information Access caIssuers URIs.
//
// A Certificate can be backed by a real DER-encoded X.509 certificate
// (constructed by internal/certgen through crypto/x509) or by a synthetic
// record whose "signature" is simulated through key identity (see
// synthetic.go). Both back ends answer the same issuance predicate, so all
// analyzers work unchanged on either representation. Real certificates are
// used wherever the code path matters bit-for-bit (the TLS scanner, the
// client capability tests); synthetic ones make million-domain populations
// tractable.
package certmodel

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"sync/atomic"
	"time"
)

// KeyUsage is a bitmask of X.509 key usage purposes, mirroring the subset of
// crypto/x509's KeyUsage that chain construction cares about. The zero value
// combined with HasKeyUsage=false models a certificate that omits the
// KeyUsage extension entirely — a state the paper's KeyUsage-priority test
// (Table 2, type 6) distinguishes from an incorrect KeyUsage.
type KeyUsage uint16

const (
	KeyUsageDigitalSignature KeyUsage = 1 << iota
	KeyUsageContentCommitment
	KeyUsageKeyEncipherment
	KeyUsageDataEncipherment
	KeyUsageKeyAgreement
	KeyUsageCertSign
	KeyUsageCRLSign
)

// MaxPathLenUnset is the sentinel for an absent pathLenConstraint.
const MaxPathLenUnset = -1

// FP is the binary SHA-256 certificate fingerprint, the canonical map key for
// every fingerprint-indexed structure in the repository (candidate pools,
// trust stores, topology graphs, chain digests). It is an alias, not a
// defined type, so Fingerprint() results flow into FP-keyed maps without
// conversion. Keying by the 32 raw bytes instead of a 64-byte hex string
// halves the bytes hashed per map operation and keeps the hot paths free of
// string handling. Byte order is hex order, so sorting by FP sorts as the
// hex form would.
type FP = [sha256.Size]byte

// Certificate is the unified certificate record.
//
// Exactly one of two back ends is active:
//   - X509 != nil: a real parsed certificate; Raw holds its DER encoding and
//     signature checks use real public-key cryptography.
//   - X509 == nil: a synthetic certificate; Raw holds a canonical text
//     encoding of the fields and signature checks compare SignedByKeyID
//     against the would-be parent's PublicKeyID.
type Certificate struct {
	// Raw is the exact byte encoding of the certificate. Bit-for-bit
	// equality of Raw defines duplicate certificates (paper §3.1).
	Raw []byte

	Subject      Name
	Issuer       Name
	SerialNumber string

	NotBefore time.Time
	NotAfter  time.Time

	// SubjectKeyID / AuthorityKeyID are the SKID and AKID extension
	// values; nil means the extension is absent.
	SubjectKeyID   []byte
	AuthorityKeyID []byte

	// KeyUsage is meaningful only when HasKeyUsage is true.
	KeyUsage    KeyUsage
	HasKeyUsage bool

	// Basic Constraints. MaxPathLen is MaxPathLenUnset when no
	// pathLenConstraint is present.
	IsCA                  bool
	BasicConstraintsValid bool
	MaxPathLen            int

	// Subject Alternative Names.
	DNSNames    []string
	IPAddresses []string

	// AIAIssuerURLs are the caIssuers URIs from the Authority Information
	// Access extension.
	AIAIssuerURLs []string

	// ExtKeyUsages is the Extended Key Usage set; empty means the
	// extension is absent (no restriction).
	ExtKeyUsages []ExtKeyUsage

	// Name Constraints (dNSName subtrees); both empty means the extension
	// is absent.
	PermittedDNSDomains []string
	ExcludedDNSDomains  []string

	// PublicKeyID identifies the subject key pair. For real certificates
	// it is the SHA-256 of the SubjectPublicKeyInfo; for synthetic ones it
	// is assigned by the builder. Two certificates for the same key (e.g.
	// cross-signed variants) share a PublicKeyID.
	PublicKeyID []byte

	// WeakSignature marks a synthetic certificate as signed with a
	// deprecated algorithm (real certificates derive this from their
	// parsed SignatureAlgorithm — see HasWeakSignature).
	WeakSignature bool

	// SignedByKeyID is the PublicKeyID of the key that signed this
	// certificate. Only used by the synthetic back end; nil for real
	// certificates, whose signatures are verified cryptographically.
	SignedByKeyID []byte

	// X509 is the parsed stdlib certificate when this record is backed by
	// real DER, nil otherwise.
	X509 *x509.Certificate

	// fp caches the digest, inline, once fpState reads fpReady. The
	// population generator, experiment environment and differential harness
	// all hash the same intermediates concurrently, so the cache is
	// published race-free: see setFingerprint.
	fp      FP
	fpState atomic.Uint32

	// subjectKey and issuerKey cache the name keys of Subject and Issuer;
	// zero means not yet computed (see keys.go).
	subjectKey, issuerKey atomic.Uint64
}

// The states of a certificate's fingerprint cache.
const (
	fpUnset uint32 = iota
	fpWriting
	fpReady
)

// Fingerprint returns the SHA-256 digest of Raw. It is computed lazily and
// cached; callers must not mutate Raw after the first call.
func (c *Certificate) Fingerprint() FP {
	if c.fpState.Load() == fpReady {
		return c.fp
	}
	fp := FP(sha256.Sum256(c.Raw))
	c.setFingerprint(fp)
	return fp
}

// setFingerprint caches fp, the digest of Raw, unless another call has
// claimed the cache. The first claim writes fp and only then marks it
// ready, so a reader that sees it ready reads a whole digest, and no two
// calls ever write it. A call that loses the claim to a racing one has
// computed the same digest and simply returns it.
func (c *Certificate) setFingerprint(fp FP) {
	if c.fpState.CompareAndSwap(fpUnset, fpWriting) {
		c.fp = fp
		c.fpState.Store(fpReady)
	}
}

// Equal reports whether the two certificates are bit-for-bit identical,
// which is the paper's definition of a duplicate certificate.
func (c *Certificate) Equal(o *Certificate) bool {
	if c == o {
		return true
	}
	if c == nil || o == nil {
		return false
	}
	return bytes.Equal(c.Raw, o.Raw)
}

// SignatureVerifiedBy reports whether parent's key verifies c's signature.
// This is criterion (1) of the paper's issuance test. Real certificates go
// through the process-wide signature memo (sigmemo.go); the synthetic back
// end is a key-identity compare and never touches it.
func (c *Certificate) SignatureVerifiedBy(parent *Certificate) bool {
	if c == nil || parent == nil {
		return false
	}
	if c.X509 != nil && parent.X509 != nil {
		return verifyX509(c, parent)
	}
	if c.X509 == nil && parent.X509 == nil {
		return len(c.SignedByKeyID) > 0 && bytes.Equal(c.SignedByKeyID, parent.PublicKeyID)
	}
	// Mixed back ends never verify: a synthetic certificate cannot carry a
	// real signature and vice versa.
	return false
}

// SelfSigned reports whether the certificate is self-signed: its subject
// equals its issuer and its own key verifies its signature.
func (c *Certificate) SelfSigned() bool {
	if c == nil {
		return false
	}
	if c.Subject != c.Issuer {
		return false
	}
	return c.SignatureVerifiedBy(c)
}

// ValidAt reports whether t falls within the certificate's validity period.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// CanSignCertificates reports whether the certificate's KeyUsage, if present,
// permits signing other certificates. An absent KeyUsage extension imposes no
// restriction (RFC 5280 §4.2.1.3).
func (c *Certificate) CanSignCertificates() bool {
	if !c.HasKeyUsage {
		return true
	}
	return c.KeyUsage&KeyUsageCertSign != 0
}

// String returns a short human-readable summary used in reports and errors.
func (c *Certificate) String() string {
	if c == nil {
		return "<nil cert>"
	}
	kind := "synthetic"
	if c.X509 != nil {
		kind = "x509"
	}
	return fmt.Sprintf("%s{subject=%q issuer=%q serial=%s ca=%v}", kind, c.Subject, c.Issuer, c.SerialNumber, c.IsCA)
}
