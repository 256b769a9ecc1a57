// Package core is the verdict engine: the one place a certificate list is
// judged by the paper's eight client models (RQ2, §5.2) and graded for
// deployment compliance (RQ1). Trust is the context every client is judged
// in, Grader holds one worker's analyzer and client matrix, and Memo is the
// rule for sharing a grading across the sites that present the same list.
// The study, the differential harness, the verdict service and the
// divergence fuzzer all grade through it.
package core

import (
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/validate"
)

// VerdictClass buckets an outcome into the coarse error classes the paper's
// differential testing compares across clients ("date_invalid / OK / domain
// mismatch / unknown issuer").
type VerdictClass int

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
