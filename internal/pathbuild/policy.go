// Package pathbuild is the paper's primary object of study implemented as a
// library: a certificate path construction engine whose behaviour is fully
// described by a Policy. Every capability the paper tests (Table 2) and
// every behavioural difference it observes between TLS implementations
// (Table 9) corresponds to a Policy knob, so the eight client models in
// internal/clients are just eight Policy values.
//
// Construction is forward: starting from the leaf the engine repeatedly
// selects an issuer for the current certificate from the server-provided
// list, the intermediate cache, the trust store, or AIA fetching, ranks
// competing candidates according to the policy's priority preferences, and —
// when the policy backtracks — explores alternatives until a candidate path
// validates.
package pathbuild

import "fmt"

// ValidityPolicy is how a builder ranks candidate issuers by their validity
// period (Table 9's VP column).
type ValidityPolicy int

const (
	// ValidityNone: validity does not influence candidate order.
	ValidityNone ValidityPolicy = iota
	// ValidityFirstValid (VP1): currently-valid candidates are preferred,
	// otherwise the presented order decides (OpenSSL, MbedTLS, Firefox).
	ValidityFirstValid
	// ValidityMostRecent (VP2): among valid candidates the most recently
	// issued wins, ties broken by the longest validity (CryptoAPI and the
	// browsers).
	ValidityMostRecent
)

// String returns the paper's shorthand for the policy.
func (v ValidityPolicy) String() string {
	switch v {
	case ValidityNone:
		return "-"
	case ValidityFirstValid:
		return "VP1"
	case ValidityMostRecent:
		return "VP2"
	default:
		return fmt.Sprintf("VP(%d)", int(v))
	}
}

// KIDPolicy is how a builder ranks candidates by Authority/Subject Key
// Identifier agreement (Table 9's KP column).
type KIDPolicy int

const (
	// KIDNone: the KID does not influence candidate order (MbedTLS,
	// Firefox — first candidate wins).
	KIDNone KIDPolicy = iota
	// KIDMatchOrAbsentFirst (KP1): a matching or absent KID outranks a
	// mismatch; match and absence tie (OpenSSL, GnuTLS, Safari).
	KIDMatchOrAbsentFirst
	// KIDMatchFirst (KP2): match > absent > mismatch (CryptoAPI, Chrome,
	// Edge).
	KIDMatchFirst
)

// String returns the paper's shorthand for the policy.
func (k KIDPolicy) String() string {
	switch k {
	case KIDNone:
		return "-"
	case KIDMatchOrAbsentFirst:
		return "KP1"
	case KIDMatchFirst:
		return "KP2"
	default:
		return fmt.Sprintf("KP(%d)", int(k))
	}
}

// Policy is the complete behavioural description of a chain-building client.
type Policy struct {
	// Name identifies the policy in reports: the client model's name.
	Name string

	// Reorder: the builder may select issuers anywhere in the presented
	// list. Without it the search is forward-only from the last consumed
	// position — which still skips irrelevant certificates (so redundancy
	// elimination holds) but cannot look backwards, reproducing MbedTLS's
	// failures on reversed chains (Table 9 row 1, finding I-1).
	Reorder bool

	// EliminateDuplicates folds bit-identical copies before construction.
	// Clients without it (MbedTLS) scan every copy, which the cost
	// accounting in Outcome.CandidatesConsidered makes visible.
	EliminateDuplicates bool

	// AIA enables fetching missing issuers through the Authority
	// Information Access extension.
	AIA bool

	// UseCache consults an intermediate-certificate cache (Builder.Cache)
	// — Firefox's substitute for AIA fetching.
	UseCache bool

	ValidityPref ValidityPolicy
	KIDPref      KIDPolicy

	// KeyUsagePref (KUP): candidates with a correct or absent KeyUsage
	// outrank candidates whose KeyUsage cannot sign certificates.
	KeyUsagePref bool

	// BasicConstraintsPref (BP): candidates whose Basic Constraints (CA
	// flag and pathLenConstraint) permit the current chain position
	// outrank violating candidates.
	BasicConstraintsPref bool

	// PreferTrustedRoot ranks candidates that are trust anchors (or
	// self-signed) above ordinary intermediates, the §6.2 recommendation
	// and Chromium's observed behaviour.
	PreferTrustedRoot bool

	// MaxPathLen caps the length of the constructed path, counting every
	// certificate including leaf and root; 0 means unlimited. Table 9 row
	// 8 measured: MbedTLS 10, CryptoAPI 13, Edge 21, Firefox 8.
	MaxPathLen int

	// MaxInputList caps the size of the presented list itself — GnuTLS's
	// unusual limit of 16, the cause of finding I-2; 0 means unlimited.
	MaxInputList int

	// AllowSelfSignedLeaf: a self-signed server certificate may serve as
	// the start of construction (MbedTLS, Safari); otherwise construction
	// refuses outright.
	AllowSelfSignedLeaf bool

	// Backtrack: when a completed candidate path fails validation, resume
	// the search at the most recent choice point (CryptoAPI and the
	// browsers; the lack of it is finding I-3).
	Backtrack bool

	// PartialValidation verifies signatures and validity while selecting
	// candidates, discarding failures immediately — MbedTLS's interleaved
	// construction/validation noted in §3.2.
	PartialValidation bool

	// MaxAttempts bounds how many complete candidate paths a backtracking
	// search may try; 0 means the default of 32.
	MaxAttempts int
}

// DefaultPolicy returns a fully capable builder: reordering, duplicate
// elimination, AIA, all priority preferences, trusted-root preference and
// backtracking — the paper's §6 recommendations in one value.
func DefaultPolicy() Policy {
	return Policy{
		Name:                 "recommended",
		Reorder:              true,
		EliminateDuplicates:  true,
		AIA:                  true,
		ValidityPref:         ValidityMostRecent,
		KIDPref:              KIDMatchFirst,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		PreferTrustedRoot:    true,
		Backtrack:            true,
	}
}
