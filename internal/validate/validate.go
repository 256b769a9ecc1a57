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
type Problem int32

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

// Finding locates one problem within the path. Its text is rendered when
// read, by Detail and String, not when the path is validated: a finding
// keeps the certificate its text names and at most one string, so
// validation formats nothing. Every certificate a finding names is on the
// validated path.
type Finding struct {
	// Index is the position in the path (0 = leaf); -1 for path-level
	// findings such as ProblemUntrusted.
	Index   int32
	Problem Problem

	// cert is the certificate the text names, nil when text is the whole
	// text. With a cert, text is the text's one string argument: the
	// domain of a hostname mismatch, or the child's CN of a bad signature.
	cert *certmodel.Certificate
	text string
}

// ClientLimit returns the path-level finding for a path that validates but
// is longer than the client's own limit, whose text is rendered here, once.
func ClientLimit(limit int) Finding {
	return Finding{Index: -1, Problem: ProblemPathLenExceeded, text: "client limit " + strconv.Itoa(limit)}
}

// Detail renders the finding's text.
func (f Finding) Detail() string {
	if f.cert == nil {
		return f.text
	}
	var buf [128]byte
	return string(f.appendDetail(buf[:0]))
}

// appendDetail appends the text of a finding that names a certificate. It
// writes the bytes fmt gave when Path formatted each text eagerly:
// strconv.AppendQuote writes what %q writes, and a Name is quoted through
// its String form, as %q quotes a Stringer.
func (f Finding) appendDetail(b []byte) []byte {
	c := f.cert
	switch f.Problem {
	case ProblemHostnameMismatch:
		b = append(b, "leaf "...)
		b = strconv.AppendQuote(b, c.Subject.CommonName)
		b = append(b, " does not match "...)
		return strconv.AppendQuote(b, f.text)
	case ProblemRevoked:
		b = append(b, "serial "...)
		b = append(b, c.SerialNumber...)
		b = append(b, " revoked by "...)
		return strconv.AppendQuote(b, c.Issuer.String())
	case ProblemExpired:
		b = append(b, "notAfter "...)
		return c.NotAfter.AppendFormat(b, time.RFC3339)
	case ProblemNotYetValid:
		b = append(b, "notBefore "...)
		return c.NotBefore.AppendFormat(b, time.RFC3339)
	case ProblemNotCA:
		b = strconv.AppendQuote(b, c.Subject.CommonName)
		return append(b, " is not a CA certificate"...)
	case ProblemPathLenExceeded:
		// The intermediates below path[i] are positions 1..i-1.
		b = append(b, "pathLen "...)
		b = strconv.AppendInt(b, int64(c.MaxPathLen), 10)
		b = append(b, " but "...)
		b = strconv.AppendInt(b, int64(f.Index-1), 10)
		return append(b, " intermediates below"...)
	case ProblemNameConstraintViolation:
		b = append(b, "leaf names violate "...)
		b = strconv.AppendQuote(b, c.Subject.CommonName)
		return append(b, "'s name constraints"...)
	case ProblemBadSignature:
		b = strconv.AppendQuote(b, c.Subject.CommonName)
		b = append(b, " does not verify "...)
		return strconv.AppendQuote(b, f.text)
	case ProblemUntrusted:
		b = append(b, "path terminates at "...)
		b = strconv.AppendQuote(b, c.Subject.String())
		return append(b, " with no trust anchor"...)
	}
	return append(b, f.text...)
}

func (f Finding) String() string {
	if f.Index < 0 {
		return fmt.Sprintf("%s: %s", f.Problem, f.Detail())
	}
	return fmt.Sprintf("cert[%d]: %s: %s", f.Index, f.Problem, f.Detail())
}

// Result is the outcome of validating one path.
type Result struct {
	OK       bool
	Findings []Finding
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

// add records one finding. Without a caller's buffer the slice is
// allocated at the first finding, with room for four, so a valid path
// keeps a nil slice.
func (r *Result) add(index int, p Problem, cert *certmodel.Certificate, text string) {
	if r.Findings == nil {
		r.Findings = make([]Finding, 0, 4)
	}
	r.Findings = append(r.Findings, Finding{Index: int32(index), Problem: p, cert: cert, text: text})
}

// Path validates path[0]=leaf … path[len-1]=top against opts. All findings
// are collected, not just the first.
func Path(path []*certmodel.Certificate, opts Options) Result {
	return PathInto(nil, path, opts)
}

// PathInto is Path with the findings written into buf's array: they are
// appended to buf[:0], so a caller that validates many paths reuses one
// buffer, and the Result aliases buf until the next call that is passed it.
func PathInto(buf []Finding, path []*certmodel.Certificate, opts Options) Result {
	res := Result{Findings: buf[:0]}
	if len(path) == 0 {
		res.add(-1, ProblemEmptyPath, nil, "no certificates")
		return res
	}

	leaf := path[0]
	if opts.Domain != "" && !leaf.MatchesDomain(opts.Domain) {
		res.add(0, ProblemHostnameMismatch, leaf, opts.Domain)
	}
	if !leaf.PermitsServerAuth() {
		res.add(0, ProblemBadEKU, nil, "leaf EKU set excludes serverAuth")
	}

	for i, cert := range path {
		if cert.HasWeakSignature() && !cert.SelfSigned() {
			// Trust-anchor signatures are never evaluated, so a weak
			// self-signature on a root is harmless; anywhere else it is a
			// deprecated-crypto rejection.
			res.add(i, ProblemDeprecatedCrypto, nil, "certificate signed with a deprecated algorithm")
		}
		if opts.Revocation.IsRevoked(cert) {
			res.add(i, ProblemRevoked, cert, "")
		}
		if !opts.Now.IsZero() {
			if opts.Now.After(cert.NotAfter) {
				res.add(i, ProblemExpired, cert, "")
			}
			if opts.Now.Before(cert.NotBefore) {
				res.add(i, ProblemNotYetValid, cert, "")
			}
		}
		if i == 0 {
			continue
		}
		// Issuer checks: CA status, KeyUsage, pathLenConstraint.
		if !cert.IsCA || !cert.BasicConstraintsValid {
			res.add(i, ProblemNotCA, cert, "")
		}
		if !cert.CanSignCertificates() {
			res.add(i, ProblemBadKeyUsage, nil, "KeyUsage lacks certSign")
		}
		// RFC 5280 §4.2.1.9: pathLenConstraint bounds the number of
		// non-self-issued intermediate certificates that may follow this
		// certificate in a valid path. In leaf-first order, the
		// intermediates below path[i] are positions 1..i-1.
		if cert.MaxPathLen != certmodel.MaxPathLenUnset && i-1 > cert.MaxPathLen {
			res.add(i, ProblemPathLenExceeded, cert, "")
		}
		// Extended Key Usage chains transitively in Web PKI practice: a CA
		// whose EKU set excludes serverAuth cannot appear on a server path.
		if !cert.PermitsServerAuth() {
			res.add(i, ProblemBadEKU, nil, "EKU set excludes serverAuth")
		}
		// Name constraints on this CA apply to every subject below it
		// (RFC 5280 §4.2.1.10); checking the leaf covers the hostname
		// identities that matter for TLS.
		if !leaf.NamesAllowedBy(cert) {
			res.add(i, ProblemNameConstraintViolation, cert, "")
		}
		if !path[i-1].SignatureVerifiedBy(cert) {
			res.add(i, ProblemBadSignature, cert, path[i-1].Subject.CommonName)
		}
	}

	if !anchored(path, opts.Roots) {
		res.add(-1, ProblemUntrusted, path[len(path)-1], "")
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
