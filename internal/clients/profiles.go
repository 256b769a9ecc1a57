// Package clients models the eight TLS implementations the paper evaluates —
// four libraries (OpenSSL, GnuTLS, MbedTLS, CryptoAPI) and four browsers
// (Chrome, Edge, Safari, Firefox) — as pathbuild.Policy values derived from
// the empirical analysis in §3.2/§5.1 and Table 9. It also implements the
// nine capability tests of Table 2 and the runner that re-derives Table 9
// from the models.
package clients

import (
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/rootstore"
)

// Kind distinguishes libraries from browsers, the split that drives the
// paper's headline comparison (libraries minus CryptoAPI underperform).
type Kind int

const (
	Library Kind = iota
	Browser
)

// String returns the kind's name.
func (k Kind) String() string {
	if k == Browser {
		return "browser"
	}
	return "library"
}

// Profile couples a named client model with its kind, the root program
// whose store it trusts as deployed, and its path-building policy.
type Profile struct {
	Name   string
	Kind   Kind
	Vendor rootstore.Vendor
	Policy pathbuild.Policy
}

// The individual client models. Knob settings come from Table 9 and the
// paper's narrative findings: MbedTLS's forward-only scan (I-1), GnuTLS's
// input-list limit of 16 (I-2), the missing backtracking in the three
// non-CryptoAPI libraries (I-3), AIA support concentrated in CryptoAPI and
// the Chromium/WebKit browsers with Firefox substituting an intermediate
// cache (I-4).

// OpenSSL (v3.0.2 in the paper).
func OpenSSL() Profile {
	return Profile{Name: "OpenSSL", Kind: Library, Vendor: rootstore.Mozilla, Policy: pathbuild.Policy{
		Name:                "OpenSSL",
		Reorder:             true,
		EliminateDuplicates: true,
		ValidityPref:        pathbuild.ValidityFirstValid,
		KIDPref:             pathbuild.KIDMatchOrAbsentFirst,
	}}
}

// GnuTLS (v3.7.3).
func GnuTLS() Profile {
	return Profile{Name: "GnuTLS", Kind: Library, Vendor: rootstore.Mozilla, Policy: pathbuild.Policy{
		Name:                "GnuTLS",
		Reorder:             true,
		EliminateDuplicates: true,
		KIDPref:             pathbuild.KIDMatchOrAbsentFirst,
		MaxInputList:        16,
	}}
}

// MbedTLS (v3.5.2).
func MbedTLS() Profile {
	return Profile{Name: "MbedTLS", Kind: Library, Vendor: rootstore.Mozilla, Policy: pathbuild.Policy{
		Name:                 "MbedTLS",
		Reorder:              false, // forward-only scan: finding I-1
		EliminateDuplicates:  false, // duplicates are rescanned every step
		ValidityPref:         pathbuild.ValidityFirstValid,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		MaxPathLen:           10,
		AllowSelfSignedLeaf:  true,
		PartialValidation:    true, // validates while constructing (§3.2)
	}}
}

// CryptoAPI (Windows, v10.0.19041).
func CryptoAPI() Profile {
	return Profile{Name: "CryptoAPI", Kind: Library, Vendor: rootstore.Microsoft, Policy: pathbuild.Policy{
		Name:                 "CryptoAPI",
		Reorder:              true,
		EliminateDuplicates:  true,
		AIA:                  true,
		ValidityPref:         pathbuild.ValidityMostRecent,
		KIDPref:              pathbuild.KIDMatchFirst,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		PreferTrustedRoot:    true,
		MaxPathLen:           13,
		Backtrack:            true,
	}}
}

// Chrome (v128).
func Chrome() Profile {
	return Profile{Name: "Chrome", Kind: Browser, Vendor: rootstore.Chrome, Policy: pathbuild.Policy{
		Name:                 "Chrome",
		Reorder:              true,
		EliminateDuplicates:  true,
		AIA:                  true,
		ValidityPref:         pathbuild.ValidityMostRecent,
		KIDPref:              pathbuild.KIDMatchFirst,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		PreferTrustedRoot:    true,
		Backtrack:            true,
	}}
}

// Edge (v128); shares the Chromium engine but trusts Microsoft's root store
// and enforces a path-length limit of 21.
func Edge() Profile {
	p := Chrome()
	p.Name = "Edge"
	p.Vendor = rootstore.Microsoft
	p.Policy.Name = "Edge"
	p.Policy.MaxPathLen = 21
	return p
}

// Safari (v17.4).
func Safari() Profile {
	return Profile{Name: "Safari", Kind: Browser, Vendor: rootstore.Apple, Policy: pathbuild.Policy{
		Name:                 "Safari",
		Reorder:              true,
		EliminateDuplicates:  true,
		AIA:                  true,
		ValidityPref:         pathbuild.ValidityMostRecent,
		KIDPref:              pathbuild.KIDMatchOrAbsentFirst,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		PreferTrustedRoot:    true,
		AllowSelfSignedLeaf:  true,
		Backtrack:            true,
	}}
}

// Firefox (v126): no AIA, but a populated intermediate cache substitutes.
func Firefox() Profile {
	return Profile{Name: "Firefox", Kind: Browser, Vendor: rootstore.Mozilla, Policy: pathbuild.Policy{
		Name:                 "Firefox",
		Reorder:              true,
		EliminateDuplicates:  true,
		UseCache:             true,
		ValidityPref:         pathbuild.ValidityFirstValid,
		KeyUsagePref:         true,
		BasicConstraintsPref: true,
		MaxPathLen:           8,
		Backtrack:            true,
	}}
}

// Libraries returns the four library models in the paper's column order.
func Libraries() []Profile {
	return []Profile{OpenSSL(), GnuTLS(), MbedTLS(), CryptoAPI()}
}

// Browsers returns the four browser models in the paper's column order.
func Browsers() []Profile {
	return []Profile{Chrome(), Edge(), Safari(), Firefox()}
}

// All returns every client model, libraries first.
func All() []Profile {
	return append(Libraries(), Browsers()...)
}
