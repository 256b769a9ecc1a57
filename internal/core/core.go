// Package core is the verdict engine: the one place a certificate list is
// judged by the paper's eight client models (RQ2, §5.2) and graded for
// deployment compliance (RQ1). Trust is the context every client is judged
// in, Grader holds one worker's analyzer and client matrix, and Memo is the
// rule for sharing a grading across the sites that present the same list.
// The study, the differential harness, the verdict service and the
// divergence fuzzer all grade through it.
package core

import (
	"strings"

	"chainchaos/internal/pathbuild"
	"chainchaos/internal/validate"
)

// VerdictClass buckets an outcome into the coarse error classes the paper's
// differential testing compares across clients ("date_invalid / OK / domain
// mismatch / unknown issuer").
type VerdictClass uint8

const (
	VerdictOK            VerdictClass = iota
	VerdictRejectedList               // construction-phase refusal (list too long, self-signed leaf)
	VerdictUnknownIssuer              // no trust-anchored path (SEC_ERROR_UNKNOWN_ISSUER class)
	VerdictDateInvalid
	VerdictDomainMismatch
	VerdictRevoked
	VerdictOtherFailure
)

// String returns the class label.
func (v VerdictClass) String() string {
	switch v {
	case VerdictOK:
		return "OK"
	case VerdictRejectedList:
		return "rejected-list"
	case VerdictUnknownIssuer:
		return "unknown-issuer"
	case VerdictDateInvalid:
		return "date-invalid"
	case VerdictDomainMismatch:
		return "domain-mismatch"
	case VerdictRevoked:
		return "revoked"
	default:
		return "other-failure"
	}
}

// Verdicts is one chain's verdict class from every client model, class i
// from Profiles[i]: the vector the paper's differential testing reads
// together (§5.2). It is a value, comparable with ==, so a map can key on it
// and storing one allocates nothing.
type Verdicts [8]VerdictClass

// Signature joins the class labels in Profiles order, separated by "|".
func (v Verdicts) Signature() string {
	parts := make([]string, len(v))
	for i, c := range v {
		parts[i] = c.String()
	}
	return strings.Join(parts, "|")
}

// Divergent reports whether any two clients disagree.
func (v Verdicts) Divergent() bool {
	for _, c := range v[1:] {
		if c != v[0] {
			return true
		}
	}
	return false
}

// Classify maps an outcome onto its verdict class, mirroring how the paper
// groups browser error messages. It is VerdictOK exactly when out.OK().
func Classify(out pathbuild.Outcome) VerdictClass { return classify(&out) }

func classify(out *pathbuild.Outcome) VerdictClass {
	if out.Err != nil {
		return VerdictRejectedList
	}
	if out.Validation.OK {
		return VerdictOK
	}
	// Priority order mirrors browser error surfaces: trust first, then
	// dates, then the hostname.
	switch {
	case out.Validation.Has(validate.ProblemUntrusted):
		return VerdictUnknownIssuer
	case out.Validation.Has(validate.ProblemExpired), out.Validation.Has(validate.ProblemNotYetValid):
		return VerdictDateInvalid
	case out.Validation.Has(validate.ProblemRevoked):
		return VerdictRevoked
	case out.Validation.Has(validate.ProblemHostnameMismatch):
		return VerdictDomainMismatch
	default:
		return VerdictOtherFailure
	}
}
