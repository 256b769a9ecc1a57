package compliance

import (
	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/topo"
)

// Completeness is the three-way classification of Table 7.
type Completeness int

const (
	// CompleteWithRoot: some path ends in a self-signed certificate; the
	// server shipped the whole chain including the root.
	CompleteWithRoot Completeness = iota
	// CompleteWithoutRoot: the immediate issuer of some path's last
	// certificate is a root (found in the store or retrieved via AIA) —
	// the standard, root-omitted deployment.
	CompleteWithoutRoot
	// Incomplete: necessary intermediate certificates are missing.
	Incomplete
)

// String returns the category's name.
func (c Completeness) String() string {
	switch c {
	case CompleteWithRoot:
		return "complete-with-root"
	case CompleteWithoutRoot:
		return "complete-without-root"
	case Incomplete:
		return "incomplete"
	default:
		return "unknown"
	}
}

// CompletenessReport holds the classification and, for incomplete chains,
// the recursive-AIA recovery analysis (§4.3).
type CompletenessReport struct {
	Class Completeness

	// For Incomplete chains:

	// AIARecoverable: recursively downloading issuers through AIA
	// completes the chain (94.5% of the paper's incomplete chains).
	AIARecoverable bool
	// MissingIntermediates is how many certificates the recovery chase had
	// to download (72.2% of the paper's incomplete chains missed exactly
	// one).
	MissingIntermediates int
	// Terminal explains a failed recovery: no AIA extension, dead URI,
	// wrong certificate at the URI, or depth exceeded.
	Terminal aia.Terminal
}

// CompletenessConfig configures the analysis.
type CompletenessConfig struct {
	// Roots is the trust anchor store consulted for the last certificate's
	// issuer; the paper's Table 7 baseline uses the four-vendor union.
	Roots *rootstore.Store
	// Fetcher resolves AIA caIssuers URIs; nil disables AIA (the Table 8
	// "AIA Not Supported" columns). Recursive recovery is bounded by the
	// aia.Chaser default depth.
	Fetcher aia.Fetcher
}

// AnalyzeCompleteness classifies one chain. For each certification path the
// last certificate is examined exactly as the paper prescribes: a
// self-signed terminus means the root was included; otherwise the issuer is
// sought in the root store by AKID/SKID (and DN); failing that, one AIA
// fetch is tried to see whether the direct issuer is a root. If no path
// terminates at a root, the chain is incomplete and a recursive chase
// determines recoverability.
func AnalyzeCompleteness(g *topo.Graph, cfg CompletenessConfig) CompletenessReport {
	paths := g.Paths()
	if len(paths) == 0 {
		return CompletenessReport{Class: Incomplete, Terminal: aia.NoAIA}
	}

	best := CompletenessReport{Class: Incomplete, Terminal: aia.NoAIA}
	bestRank := 3 // lower is better: 0 with-root, 1 without-root, 2 incomplete
	var incompleteTails []*certmodel.Certificate

	for _, path := range paths {
		last := path[len(path)-1].Cert
		switch {
		case last.SelfSigned():
			if bestRank > 0 {
				best = CompletenessReport{Class: CompleteWithRoot}
				bestRank = 0
			}
		case issuerIsRoot(last, cfg):
			if bestRank > 1 {
				best = CompletenessReport{Class: CompleteWithoutRoot}
				bestRank = 1
			}
		default:
			incompleteTails = append(incompleteTails, last)
		}
	}
	if bestRank < 2 {
		return best
	}

	// Every path dangles: the chain is incomplete. Determine whether
	// recursive AIA download recovers any path.
	best = CompletenessReport{Class: Incomplete, Terminal: aia.NoAIA}
	if cfg.Fetcher == nil {
		return best
	}
	chaser := &aia.Chaser{
		Fetcher: cfg.Fetcher,
		TrustedIssuer: func(c *certmodel.Certificate) bool {
			return issuerIsRootInStore(c, cfg.Roots)
		},
	}
	for _, tail := range incompleteTails {
		result := chaser.Chase(tail)
		if result.Completed() {
			// Count only missing intermediates: a chase that had to
			// download the root itself (because the last intermediate's
			// AKID could not be matched in the store) did not reveal a
			// missing intermediate certificate.
			missing := 0
			for _, fetched := range result.Fetched {
				if !fetched.SelfSigned() {
					missing++
				}
			}
			return CompletenessReport{
				Class:                Incomplete,
				AIARecoverable:       true,
				MissingIntermediates: missing,
			}
		}
		// Keep the most informative failure terminal.
		best.Terminal = result.Terminal
	}
	return best
}

// issuerIsRoot reports whether cert's immediate issuer is a trust anchor,
// checking the store first and falling back to a single AIA fetch whose
// result must be self-signed (the paper's exact procedure).
func issuerIsRoot(cert *certmodel.Certificate, cfg CompletenessConfig) bool {
	if issuerIsRootInStore(cert, cfg.Roots) {
		return true
	}
	if cfg.Fetcher == nil {
		return false
	}
	for _, uri := range cert.AIAIssuerURLs {
		fetched, err := cfg.Fetcher.Fetch(uri)
		if err != nil {
			continue
		}
		if certmodel.Issued(fetched, cert) && fetched.SelfSigned() {
			return true
		}
	}
	return false
}

// issuerIsRootInStore performs the store lookup exactly as §3.1 describes:
// the certificate's AKID is matched against the SKIDs in the root store (and
// the candidate must actually verify the certificate). A certificate without
// an AKID cannot be matched this way — it needs the AIA fallback, which is
// why AIA support dominates root-store choice in Table 8.
func issuerIsRootInStore(cert *certmodel.Certificate, roots *rootstore.Store) bool {
	if roots == nil {
		return false
	}
	for _, root := range roots.FindBySKID(cert.AuthorityKeyID) {
		if certmodel.Issued(root, cert) {
			return true
		}
	}
	return false
}
