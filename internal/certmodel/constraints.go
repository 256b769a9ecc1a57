package certmodel

import (
	"crypto/x509"
	"strings"
)

// ExtKeyUsage enumerates the extended key usage purposes relevant to Web PKI
// chain validation. The paper's capability tests skip EKU (Table 1 marks
// BAD_EKU as BetterTLS-only coverage); this repository implements it anyway
// so the BetterTLS comparison baseline (internal/bettertls) can run.
type ExtKeyUsage int

const (
	EKUServerAuth ExtKeyUsage = iota
	EKUClientAuth
	EKUCodeSigning
	EKUEmailProtection
	EKUOCSPSigning
	EKUAny
)

// String returns the purpose's name.
func (e ExtKeyUsage) String() string {
	switch e {
	case EKUServerAuth:
		return "serverAuth"
	case EKUClientAuth:
		return "clientAuth"
	case EKUCodeSigning:
		return "codeSigning"
	case EKUEmailProtection:
		return "emailProtection"
	case EKUOCSPSigning:
		return "OCSPSigning"
	case EKUAny:
		return "anyExtendedKeyUsage"
	default:
		return "unknownEKU"
	}
}

// PermitsServerAuth reports whether the certificate's EKU set (when present)
// allows TLS server authentication. Browsers enforce EKU transitively: a CA
// whose EKU set lacks serverAuth cannot anchor a server chain.
func (c *Certificate) PermitsServerAuth() bool {
	if len(c.ExtKeyUsages) == 0 {
		return true
	}
	for _, e := range c.ExtKeyUsages {
		if e == EKUServerAuth || e == EKUAny {
			return true
		}
	}
	return false
}

// HasWeakSignature reports whether the certificate is signed with an
// algorithm modern Web PKI verifiers refuse (MD5- or SHA1-based). For
// synthetic certificates the builder sets the flag explicitly.
func (c *Certificate) HasWeakSignature() bool {
	if c.X509 == nil {
		return c.WeakSignature
	}
	switch c.X509.SignatureAlgorithm {
	case x509.MD2WithRSA, x509.MD5WithRSA, x509.SHA1WithRSA,
		x509.DSAWithSHA1, x509.ECDSAWithSHA1:
		return true
	}
	return false
}

// HasNameConstraints reports whether the certificate carries a Name
// Constraints extension.
func (c *Certificate) HasNameConstraints() bool {
	return len(c.PermittedDNSDomains) > 0 || len(c.ExcludedDNSDomains) > 0
}

// nameWithinConstraint applies RFC 5280 §4.2.1.10 dNSName semantics: a
// constraint matches the host itself and any subdomain; a leading dot
// restricts to subdomains only.
func nameWithinConstraint(host, constraint string) bool {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	constraint = strings.ToLower(strings.TrimSuffix(constraint, "."))
	if constraint == "" {
		return true // an empty dNSName constraint matches everything
	}
	host = strings.TrimPrefix(host, "*.")
	if strings.HasPrefix(constraint, ".") {
		return strings.HasSuffix(host, constraint)
	}
	return host == constraint || strings.HasSuffix(host, "."+constraint)
}

// NamesAllowedBy reports whether every DNS identity of c satisfies the name
// constraints carried by ca: inside some permitted subtree (when any is
// declared) and outside every excluded subtree. Without SANs, a CN that
// looks like a domain is the identity.
func (c *Certificate) NamesAllowedBy(ca *Certificate) bool {
	if !ca.HasNameConstraints() {
		return true
	}
	if len(c.DNSNames) == 0 {
		cn := c.Subject.CommonName
		return cn == "" || !LooksLikeDomain(cn) || nameAllowedBy(cn, ca)
	}
	for _, name := range c.DNSNames {
		if !nameAllowedBy(name, ca) {
			return false
		}
	}
	return true
}

// nameAllowedBy reports whether one DNS name satisfies ca's name
// constraints.
func nameAllowedBy(name string, ca *Certificate) bool {
	if len(ca.PermittedDNSDomains) > 0 {
		ok := false
		for _, p := range ca.PermittedDNSDomains {
			if nameWithinConstraint(name, p) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, x := range ca.ExcludedDNSDomains {
		if nameWithinConstraint(name, x) {
			return false
		}
	}
	return true
}
