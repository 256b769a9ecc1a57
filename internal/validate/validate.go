// Package validate implements certification path validation — the second
// step of Figure 1 in the paper, deliberately separated from path
// construction (internal/pathbuild). A constructed path is checked for
// validity windows, CA status, pathLenConstraints, KeyUsage, signatures,
// hostname match, and anchoring in a trust store.
package validate

import (
	"fmt"
	"strconv"
	"time"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/revocation"
	"chainchaos/internal/rootstore"
)

// Problem enumerates the defects path validation can find.
type Problem int

const (
	ProblemExpired Problem = iota
	ProblemNotYetValid
	ProblemNotCA
	ProblemPathLenExceeded
	ProblemBadKeyUsage
	ProblemBadSignature
	ProblemUntrusted
	ProblemHostnameMismatch
	ProblemEmptyPath
	ProblemRevoked
	ProblemBadEKU
	ProblemNameConstraintViolation
	ProblemDeprecatedCrypto
)

// String returns the problem's name.
func (p Problem) String() string {
	switch p {
	case ProblemExpired:
		return "expired"
	case ProblemNotYetValid:
		return "not-yet-valid"
	case ProblemNotCA:
		return "not-a-ca"
	case ProblemPathLenExceeded:
		return "path-length-exceeded"
	case ProblemBadKeyUsage:
		return "bad-key-usage"
	case ProblemBadSignature:
		return "bad-signature"
	case ProblemUntrusted:
		return "untrusted"
	case ProblemHostnameMismatch:
		return "hostname-mismatch"
	case ProblemEmptyPath:
		return "empty-path"
	case ProblemRevoked:
		return "revoked"
	case ProblemBadEKU:
		return "bad-extended-key-usage"
	case ProblemNameConstraintViolation:
		return "name-constraint-violation"
	case ProblemDeprecatedCrypto:
		return "deprecated-crypto"
	default:
		return fmt.Sprintf("problem(%d)", int(p))
	}
}

// Finding locates one problem within the path.
type Finding struct {
	// Index is the position in the path (0 = leaf); -1 for path-level
	// findings such as ProblemUntrusted.
	Index   int
	Problem Problem
	Detail  string
}

func (f Finding) String() string {
	if f.Index < 0 {
		return fmt.Sprintf("%s: %s", f.Problem, f.Detail)
	}
	return fmt.Sprintf("cert[%d]: %s: %s", f.Index, f.Problem, f.Detail)
}

// Result is the outcome of validating one path.
type Result struct {
	OK       bool
	Findings []Finding
}

// FirstProblem returns the first finding's problem, or -1 if OK.
func (r Result) FirstProblem() Problem {
	if len(r.Findings) == 0 {
		return Problem(-1)
	}
	return r.Findings[0].Problem
}

// Has reports whether the result contains a finding with the given problem.
func (r Result) Has(p Problem) bool {
	for _, f := range r.Findings {
		if f.Problem == p {
			return true
		}
	}
	return false
}

// Options configures path validation.
type Options struct {
	// Roots is the trust store; the path's terminal certificate must be in
	// it, or be directly issued by a member.
	Roots *rootstore.Store
	// Now is the validation time; the zero value disables validity checks
	// (used by construction-only capability probes).
	Now time.Time
	// Domain, when non-empty, must match the leaf.
	Domain string
	// Revocation, when non-nil, is consulted for every certificate on the
	// path.
	Revocation *revocation.List
}

// add records one finding. The slice is allocated at the first finding,
// with room for four, so a valid path keeps a nil slice.
func (r *Result) add(index int, p Problem, detail string) {
	if r.Findings == nil {
		r.Findings = make([]Finding, 0, 4)
	}
	r.Findings = append(r.Findings, Finding{Index: index, Problem: p, Detail: detail})
}

// Path validates path[0]=leaf … path[len-1]=top against opts. All findings
// are collected, not just the first.
//
// Each formatted Detail is appended into a stack buffer and converted to a
// string once. strconv.AppendQuote writes the bytes fmt's %q would, and a
// Name is quoted through its String form, as %q quotes a Stringer.
func Path(path []*certmodel.Certificate, opts Options) Result {
	var res Result
	if len(path) == 0 {
		res.add(-1, ProblemEmptyPath, "no certificates")
		return res
	}

	var buf [128]byte
	leaf := path[0]
	if opts.Domain != "" && !leaf.MatchesDomain(opts.Domain) {
		b := append(buf[:0], "leaf "...)
		b = strconv.AppendQuote(b, leaf.Subject.CommonName)
		b = append(b, " does not match "...)
		b = strconv.AppendQuote(b, opts.Domain)
		res.add(0, ProblemHostnameMismatch, string(b))
	}
	if !leaf.PermitsServerAuth() {
		res.add(0, ProblemBadEKU, "leaf EKU set excludes serverAuth")
	}

	for i, cert := range path {
		if cert.HasWeakSignature() && !cert.SelfSigned() {
			// Trust-anchor signatures are never evaluated, so a weak
			// self-signature on a root is harmless; anywhere else it is a
			// deprecated-crypto rejection.
			res.add(i, ProblemDeprecatedCrypto, "certificate signed with a deprecated algorithm")
		}
		if opts.Revocation.IsRevoked(cert) {
			b := append(buf[:0], "serial "...)
			b = append(b, cert.SerialNumber...)
			b = append(b, " revoked by "...)
			b = strconv.AppendQuote(b, cert.Issuer.String())
			res.add(i, ProblemRevoked, string(b))
		}
		if !opts.Now.IsZero() {
			if opts.Now.After(cert.NotAfter) {
				b := append(buf[:0], "notAfter "...)
				b = cert.NotAfter.AppendFormat(b, time.RFC3339)
				res.add(i, ProblemExpired, string(b))
			}
			if opts.Now.Before(cert.NotBefore) {
				b := append(buf[:0], "notBefore "...)
				b = cert.NotBefore.AppendFormat(b, time.RFC3339)
				res.add(i, ProblemNotYetValid, string(b))
			}
		}
		if i == 0 {
			continue
		}
		// Issuer checks: CA status, KeyUsage, pathLenConstraint.
		if !cert.IsCA || !cert.BasicConstraintsValid {
			b := strconv.AppendQuote(buf[:0], cert.Subject.CommonName)
			b = append(b, " is not a CA certificate"...)
			res.add(i, ProblemNotCA, string(b))
		}
		if !cert.CanSignCertificates() {
			res.add(i, ProblemBadKeyUsage, "KeyUsage lacks certSign")
		}
		// RFC 5280 §4.2.1.9: pathLenConstraint bounds the number of
		// non-self-issued intermediate certificates that may follow this
		// certificate in a valid path. In leaf-first order, the
		// intermediates below path[i] are positions 1..i-1.
		if cert.MaxPathLen != certmodel.MaxPathLenUnset {
			below := i - 1
			if below > cert.MaxPathLen {
				b := append(buf[:0], "pathLen "...)
				b = strconv.AppendInt(b, int64(cert.MaxPathLen), 10)
				b = append(b, " but "...)
				b = strconv.AppendInt(b, int64(below), 10)
				b = append(b, " intermediates below"...)
				res.add(i, ProblemPathLenExceeded, string(b))
			}
		}
		// Extended Key Usage chains transitively in Web PKI practice: a CA
		// whose EKU set excludes serverAuth cannot appear on a server path.
		if !cert.PermitsServerAuth() {
			res.add(i, ProblemBadEKU, "EKU set excludes serverAuth")
		}
		// Name constraints on this CA apply to every subject below it
		// (RFC 5280 §4.2.1.10); checking the leaf covers the hostname
		// identities that matter for TLS.
		if !leaf.NamesAllowedBy(cert) {
			b := append(buf[:0], "leaf names violate "...)
			b = strconv.AppendQuote(b, cert.Subject.CommonName)
			b = append(b, "'s name constraints"...)
			res.add(i, ProblemNameConstraintViolation, string(b))
		}
		if !path[i-1].SignatureVerifiedBy(cert) {
			b := strconv.AppendQuote(buf[:0], cert.Subject.CommonName)
			b = append(b, " does not verify "...)
			b = strconv.AppendQuote(b, path[i-1].Subject.CommonName)
			res.add(i, ProblemBadSignature, string(b))
		}
	}

	if !anchored(path, opts.Roots) {
		b := append(buf[:0], "path terminates at "...)
		b = strconv.AppendQuote(b, path[len(path)-1].Subject.String())
		b = append(b, " with no trust anchor"...)
		res.add(-1, ProblemUntrusted, string(b))
	}

	res.OK = len(res.Findings) == 0
	return res
}

// anchored reports whether the path reaches a trust anchor: its terminal
// certificate is in the store, or is directly issued by a store member.
func anchored(path []*certmodel.Certificate, roots *rootstore.Store) bool {
	if roots == nil {
		return false
	}
	last := path[len(path)-1]
	return roots.Contains(last) || roots.HasIssuer(last)
}
