// Package bettertls implements the comparison baseline of the paper's
// Table 1: a BetterTLS-style test suite for "validation correctness" —
// whether a client rejects an invalid certificate and selects an alternative
// valid chain when one exists. The paper contrasts its own construction-
// focused tests with BetterTLS's validation-focused ones; implementing both
// sides lets the combined matrix be generated rather than transcribed.
//
// Each test deploys two candidate issuers for the leaf's key: a poisoned
// variant (expired, name-constraint-violating, wrong EKU, missing Basic
// Constraints, or not a CA) presented first, and a healthy variant behind
// it. A client passes when it ends up on the healthy chain — by candidate
// prioritization, construction-time filtering, or backtracking.
package bettertls

import (
	"fmt"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/rootstore"
)

// TestKind enumerates the BetterTLS-side capability types of Table 1.
type TestKind int

const (
	Expired TestKind = iota
	NameConstraintsViolation
	BadEKU
	MissingBasicConstraints
	NotACA
	DeprecatedCrypto
)

// String returns Table 1's label.
func (k TestKind) String() string {
	switch k {
	case Expired:
		return "EXPIRED"
	case NameConstraintsViolation:
		return "NAME_CONSTRAINTS"
	case BadEKU:
		return "BAD_EKU"
	case MissingBasicConstraints:
		return "MISS_BASIC_CONSTRAINTS"
	case NotACA:
		return "NOT_A_CA"
	case DeprecatedCrypto:
		return "DEPRECATED_CRYPTO"
	default:
		return fmt.Sprintf("TEST(%d)", int(k))
	}
}

// Kinds returns every implemented test kind.
func Kinds() []TestKind {
	return []TestKind{Expired, NameConstraintsViolation, BadEKU, MissingBasicConstraints, NotACA, DeprecatedCrypto}
}

// Case is one generated test: a list with a poisoned-first candidate pair.
type Case struct {
	Kind    TestKind
	Domain  string
	List    []*certmodel.Certificate
	Roots   *rootstore.Store
	Poison  *certmodel.Certificate
	Healthy *certmodel.Certificate
}

// NewCase builds the test chain for a kind. The poisoned issuer variant
// shares the healthy one's subject and key, so only validity decides.
func NewCase(kind TestKind) (*Case, error) {
	root, err := certgen.NewRoot("BetterTLS Root " + kind.String())
	if err != nil {
		return nil, err
	}
	healthy, err := root.NewIntermediate("BetterTLS CA " + kind.String())
	if err != nil {
		return nil, err
	}
	domain := "bettertls.test.example"
	leaf, err := healthy.NewLeaf(domain)
	if err != nil {
		return nil, err
	}

	var poisonOpts []certgen.Option
	switch kind {
	case Expired:
		poisonOpts = []certgen.Option{certgen.WithValidity(
			certgen.Reference.AddDate(-3, 0, 0), certgen.Reference.AddDate(-1, 0, 0))}
	case NameConstraintsViolation:
		// The poisoned CA only permits names under a different tree.
		poisonOpts = []certgen.Option{certgen.WithNameConstraints([]string{"allowed.example"}, nil)}
	case BadEKU:
		poisonOpts = []certgen.Option{certgen.WithEKU(certmodel.EKUClientAuth)}
	case MissingBasicConstraints:
		poisonOpts = []certgen.Option{certgen.WithoutBasicConstraints()}
	case NotACA:
		poisonOpts = []certgen.Option{func(t *certgen.Template) { t.IsCA = false }}
	case DeprecatedCrypto:
		// ECDSA-SHA1: parses fine, but modern verifiers refuse the
		// signature outright.
		poisonOpts = []certgen.Option{certgen.WithWeakSignature()}
	default:
		return nil, fmt.Errorf("bettertls: unknown kind %v", kind)
	}
	poison, err := root.ReissueIntermediate(healthy, poisonOpts...)
	if err != nil {
		return nil, err
	}

	return &Case{
		Kind:    kind,
		Domain:  domain,
		List:    []*certmodel.Certificate{leaf.Cert, poison, healthy.Cert, root.Cert},
		Roots:   rootstore.NewWith("bettertls", root.Cert),
		Poison:  poison,
		Healthy: healthy.Cert,
	}, nil
}

// Result is one client's outcome on one case.
type Result struct {
	Client string
	Kind   TestKind
	// Accepted: the client validated some chain.
	Accepted bool
	// ViaHealthy: the final path routes through the healthy variant.
	ViaHealthy bool
	// Pass is the BetterTLS notion of success: the connection succeeds AND
	// avoids the poisoned certificate.
	Pass bool
}

// Suite holds the generated cases.
type Suite struct {
	Cases []*Case
}

// NewSuite generates every case.
func NewSuite() (*Suite, error) {
	s := &Suite{}
	for _, k := range Kinds() {
		c, err := NewCase(k)
		if err != nil {
			return nil, fmt.Errorf("bettertls: case %v: %w", k, err)
		}
		s.Cases = append(s.Cases, c)
	}
	return s, nil
}

// Run evaluates one client model over every case.
func (s *Suite) Run(p clients.Profile) []Result {
	var out []Result
	for _, c := range s.Cases {
		res := core.Trust{Roots: c.Roots, Now: certgen.Reference}.Builder(p).Build(c.List, c.Domain)
		r := Result{Client: p.Name, Kind: c.Kind, Accepted: res.OK()}
		for _, cert := range res.Path {
			if cert.Equal(c.Healthy) {
				r.ViaHealthy = true
			}
		}
		r.Pass = r.Accepted && r.ViaHealthy
		out = append(out, r)
	}
	return out
}

// RunAll evaluates every client model, keyed by client name then kind.
func (s *Suite) RunAll() map[string]map[TestKind]Result {
	out := make(map[string]map[TestKind]Result)
	for _, p := range clients.All() {
		m := make(map[TestKind]Result)
		for _, r := range s.Run(p) {
			m[r.Kind] = r
		}
		out[p.Name] = m
	}
	return out
}

// recommendedPolicy exposes the §6 recommended builder policy for the test
// suite and the Table 1 experiment.
func recommendedPolicy() pathbuild.Policy {
	p := pathbuild.DefaultPolicy()
	p.AIA = false // these cases need no fetching
	return p
}
