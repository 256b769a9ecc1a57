// Package ca simulates certificate authorities and resellers as the paper
// characterizes them in Table 6 and Appendix C (Table 11): each profile
// issues a leaf certificate and hands the subscriber a set of files —
// possibly a fullchain, possibly a ca-bundle with intermediates in reverse
// order, possibly with the root included or an intermediate missing. Those
// delivery quirks, combined with administrator behaviour and HTTP server
// checks (internal/httpserver), are the mechanical origin of the
// non-compliant chains the paper measures.
package ca

import (
	"fmt"
	"time"

	"chainchaos/internal/certmodel"
)

// GuideLevel describes the quality of the CA's installation guidance.
type GuideLevel int

const (
	GuideNone    GuideLevel = iota
	GuidePartial            // e.g. covers only Apache/IIS
	GuideFull
)

// String returns the level's name.
func (g GuideLevel) String() string {
	switch g {
	case GuideNone:
		return "none"
	case GuidePartial:
		return "partial"
	case GuideFull:
		return "full"
	default:
		return "unknown"
	}
}

// MisconfigRates are per-type probabilities that a chain issued by this CA
// ends up deployed non-compliantly, calibrated from Table 11's percentages.
type MisconfigRates struct {
	Duplicate     float64
	Irrelevant    float64
	MultiplePaths float64
	Reversed      float64
	Incomplete    float64
}

// Profile is a CA or reseller's issuance characteristics (Table 6).
type Profile struct {
	Name string

	AutomaticManagement bool
	ProvidesFullchain   bool
	ProvidesCABundle    bool
	ProvidesRoot        bool
	// BundleReversed: the ca-bundle lists certificates top-down (root or
	// topmost intermediate first) — the GoGetSSL / cyber_Folks / Trustico
	// behaviour behind the reversed-sequence epidemic.
	BundleReversed bool
	// OmitsIntermediate: the delivered bundle lacks a required
	// intermediate (TAIWAN-CA's missing cross-signed root CA).
	OmitsIntermediate bool
	InstallGuide      GuideLevel
	// Undisclosed: the CA's intermediates are missing from CCADB, so
	// Firefox's intermediate preload, built from CCADB, lacks them.
	Undisclosed bool

	// MarketShare weights population assignment; Rates calibrate
	// misconfiguration injection (both from Table 11).
	MarketShare float64
	Rates       MisconfigRates
}

// Profiles returns the eight CAs/resellers of Table 11 plus a residual
// "Other" profile covering the rest of the market. Shares are the Table 11
// "Total" row normalized against the 906,336-chain dataset; rates are the
// per-type percentages.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "Let's Encrypt", AutomaticManagement: true,
			ProvidesFullchain: true, ProvidesCABundle: true, InstallGuide: GuideFull,
			MarketShare: 0.4422,
			Rates:       MisconfigRates{Duplicate: 0.008, Irrelevant: 0.001, MultiplePaths: 0.0001, Reversed: 0.0002, Incomplete: 0.003},
		},
		{
			Name: "DigiCert", ProvidesCABundle: true, InstallGuide: GuidePartial,
			MarketShare: 0.0672,
			Rates:       MisconfigRates{Duplicate: 0.013, Irrelevant: 0.012, MultiplePaths: 0.0001, Reversed: 0.029, Incomplete: 0.037},
		},
		{
			Name: "Sectigo Limited", ProvidesCABundle: true, InstallGuide: GuidePartial,
			MarketShare: 0.0530,
			Rates:       MisconfigRates{Duplicate: 0.013, Irrelevant: 0.010, MultiplePaths: 0.003, Reversed: 0.053, Incomplete: 0.042},
		},
		{
			Name: "ZeroSSL", AutomaticManagement: true, ProvidesCABundle: true,
			ProvidesRoot: false, InstallGuide: GuidePartial,
			MarketShare: 0.0091,
			Rates:       MisconfigRates{Duplicate: 0.010, Irrelevant: 0.004, Reversed: 0.0002, Incomplete: 0.015},
		},
		{
			Name: "GoGetSSL", ProvidesCABundle: true, ProvidesRoot: true,
			BundleReversed: true, InstallGuide: GuideNone,
			MarketShare: 0.0018,
			Rates:       MisconfigRates{Duplicate: 0.025, Irrelevant: 0.021, MultiplePaths: 0.004, Reversed: 0.077, Incomplete: 0.069},
		},
		{
			Name: "TAIWAN-CA", ProvidesCABundle: true, OmitsIntermediate: true,
			InstallGuide: GuidePartial, Undisclosed: true,
			MarketShare: 0.00054,
			Rates:       MisconfigRates{Duplicate: 0.014, Irrelevant: 0.016, Reversed: 0.096, Incomplete: 0.419},
		},
		{
			Name: "cyber_Folks S.A.", ProvidesCABundle: true, ProvidesRoot: true,
			BundleReversed: true, InstallGuide: GuideNone,
			MarketShare: 0.00016,
			Rates:       MisconfigRates{Duplicate: 0.021, Irrelevant: 0.056, Reversed: 0.606, Incomplete: 0.056},
		},
		{
			Name: "Trustico", ProvidesCABundle: true, ProvidesRoot: true,
			BundleReversed: true, InstallGuide: GuideNone,
			MarketShare: 0.00012,
			Rates:       MisconfigRates{Duplicate: 0.009, Irrelevant: 0.009, Reversed: 0.620, Incomplete: 0.037},
		},
		{
			// The long tail of CAs not broken out by the paper. Rates are
			// the residual mass: Table 5/7 totals minus the eight named
			// CAs' contributions, normalized over the remaining ~386k
			// chains (which makes this tail the largest single source of
			// reversed sequences and incomplete chains).
			Name: "Other", ProvidesFullchain: true, ProvidesCABundle: true,
			InstallGuide: GuidePartial,
			MarketShare:  0.4259,
			Rates:        MisconfigRates{Duplicate: 0.003, Irrelevant: 0.0034, MultiplePaths: 0.00012, Reversed: 0.010, Incomplete: 0.016},
		},
	}
}

// Delivery is the set of files (as ordered certificate lists) a subscriber
// receives after issuance.
type Delivery struct {
	// Leaf is the end-entity certificate (CertificateFile.pem).
	Leaf *certmodel.Certificate
	// Bundle is Ca-bundle.pem: intermediates (plus the root when the CA
	// includes it) in the CA's delivered order — reversed for
	// BundleReversed profiles.
	Bundle []*certmodel.Certificate
	// Fullchain is Fullchain.pem when the CA provides one: leaf followed
	// by the correctly ordered intermediates.
	Fullchain []*certmodel.Certificate
}

// Issuer is an instantiated CA hierarchy for one profile: a root, a chain of
// intermediates, and optionally a cross-signed variant of the top
// intermediate (for multiple-path deployments).
type Issuer struct {
	Profile       Profile
	Tag           string
	Root          *certmodel.Certificate
	Intermediates []*certmodel.Certificate // top-down: closest to root first
	// CrossSigned, when non-nil, is an alternative certificate for
	// Intermediates[0]'s key chaining to CrossRoot.
	CrossSigned *certmodel.Certificate
	CrossRoot   *certmodel.Certificate
	// RootCrossSigned is an alternative certificate for the Root's own key
	// signed by CrossRoot — the shape behind the paper's §6.2 observation
	// that 744 chains carry an intermediate and a trusted self-signed root
	// sharing subject DN and KID.
	RootCrossSigned *certmodel.Certificate

	aiaBase string
	// leafAIA is the caIssuers list of every leaf this issuer signs (nil
	// without AIA), built once: NewSynthetic copies it into each leaf.
	leafAIA []string
	serial  int
}

// IssuerConfig controls hierarchy instantiation beyond the profile.
type IssuerConfig struct {
	Profile Profile
	Base    time.Time
	// Tag uniquifies multiple hierarchies of the same CA (real CAs operate
	// many intermediates).
	Tag string
	// AIABase, when non-empty, equips every non-root certificate with an
	// AIA caIssuers URI of the form <AIABase>/<tag>/<level>.der; empty
	// disables AIA in the whole hierarchy (the paper's 579 missing-AIA
	// chains, and the regional-CA mechanism behind Table 8).
	AIABase string
	// TopNoAKID omits the Authority Key Identifier on the topmost
	// intermediate, so a client or analyzer can link it to the root only
	// through its issuer DN or an AIA fetch — the population's lever for
	// Table 8's "AIA Not Supported" column.
	TopNoAKID bool
}

// NewSyntheticIssuer builds a synthetic two-intermediate hierarchy.
func NewSyntheticIssuer(cfg IssuerConfig) *Issuer {
	p := cfg.Profile
	base := cfg.Base
	name := func(s string) string {
		if cfg.Tag == "" {
			return p.Name + " " + s
		}
		return p.Name + " " + s + " " + cfg.Tag
	}
	iss := &Issuer{Profile: p, Tag: cfg.Tag, aiaBase: cfg.AIABase}

	root := certmodel.SyntheticRoot(name("Root CA"), base)

	topKey := certmodel.NewSyntheticKey(name("TLS CA"))
	top := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject:               certmodel.Name{CommonName: name("TLS CA"), Organization: root.Subject.Organization},
		Issuer:                root.Subject,
		Serial:                "int-" + name("TLS CA"),
		NotBefore:             base,
		NotAfter:              base.AddDate(5, 0, 0),
		Key:                   topKey,
		SignedBy:              certmodel.KeyOf(root),
		OmitAKID:              cfg.TopNoAKID,
		KeyUsage:              certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
		AIAIssuerURLs:         iss.aiaURLs("root"),
	})

	issuingKey := certmodel.NewSyntheticKey(name("DV TLS CA"))
	issuing := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject:               certmodel.Name{CommonName: name("DV TLS CA"), Organization: root.Subject.Organization},
		Issuer:                top.Subject,
		Serial:                "int-" + name("DV TLS CA"),
		NotBefore:             base,
		NotAfter:              base.AddDate(5, 0, 0),
		Key:                   issuingKey,
		SignedBy:              certmodel.KeyOf(top),
		KeyUsage:              certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
		AIAIssuerURLs:         iss.aiaURLs("top"),
	})

	legacy := certmodel.SyntheticRoot(name("Legacy Root"), base.AddDate(-8, 0, 0))
	cross := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject:               top.Subject,
		Issuer:                legacy.Subject,
		Serial:                "cross-" + name("TLS CA"),
		NotBefore:             base,
		NotAfter:              base.AddDate(4, 0, 0),
		Key:                   certmodel.KeyOf(top),
		SignedBy:              certmodel.KeyOf(legacy),
		KeyUsage:              certmodel.KeyUsageCertSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})

	rootCross := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject:               root.Subject,
		Issuer:                legacy.Subject,
		Serial:                "rootcross-" + name("Root CA"),
		NotBefore:             base,
		NotAfter:              base.AddDate(4, 0, 0),
		Key:                   certmodel.KeyOf(root),
		SignedBy:              certmodel.KeyOf(legacy),
		KeyUsage:              certmodel.KeyUsageCertSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})

	iss.leafAIA = iss.aiaURLs("issuing")
	iss.Root = root
	iss.Intermediates = []*certmodel.Certificate{top, issuing}
	iss.CrossSigned = cross
	iss.CrossRoot = legacy
	iss.RootCrossSigned = rootCross
	return iss
}

// aiaURLs returns the caIssuers URI list pointing at the given level of this
// hierarchy, or nil when AIA is disabled.
func (iss *Issuer) aiaURLs(level string) []string {
	if iss.aiaBase == "" {
		return nil
	}
	return []string{iss.aiaBase + "/" + urlTag(iss.Profile.Name, iss.Tag) + "/" + level + ".der"}
}

func urlTag(name, tag string) string {
	s := ""
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			s += string(r)
		case r >= 'A' && r <= 'Z':
			s += string(r - 'A' + 'a')
		}
	}
	if tag != "" {
		s += "-" + tag
	}
	return s
}

// RegisterAIA publishes each certificate at the URI its children reference.
func (iss *Issuer) RegisterAIA(put func(uri string, cert *certmodel.Certificate)) {
	if iss.aiaBase == "" {
		return
	}
	put(iss.aiaURLs("root")[0], iss.Root)
	put(iss.aiaURLs("top")[0], iss.Intermediates[0])
	put(iss.aiaURLs("issuing")[0], iss.Intermediates[1])
}

// IssuingCA returns the intermediate that signs leaves.
func (iss *Issuer) IssuingCA() *certmodel.Certificate {
	return iss.Intermediates[len(iss.Intermediates)-1]
}

// LeafOptions tweak a single leaf issuance.
type LeafOptions struct {
	// OmitAIA drops the AIA extension from this leaf even when the
	// hierarchy carries AIA.
	OmitAIA bool
	// AIAOverride replaces the leaf's caIssuers URI (dead URIs, the CAcert
	// self-pointer case).
	AIAOverride string
	// Serial, when non-empty, replaces the issuer's internal serial counter
	// for this leaf. Callers that issue from multiple goroutines (the
	// parallel population generator) must supply one: the internal counter
	// is shared mutable state, and serials derived from it would depend on
	// issuance order.
	Serial string
}

// IssueLeaf creates a leaf certificate for domain valid [notBefore,
// notAfter]. Given opts.Serial and at most one caIssuers URI it allocates
// three times: the serial, and the leaf's two (certmodel.SyntheticLeaf).
func (iss *Issuer) IssueLeaf(domain string, notBefore, notAfter time.Time, opts LeafOptions) *certmodel.Certificate {
	var serial string
	if opts.Serial != "" {
		serial = iss.Profile.Name + "-" + iss.Tag + "-" + opts.Serial
	} else {
		iss.serial++
		serial = fmt.Sprintf("%s-%s-%06d", iss.Profile.Name, iss.Tag, iss.serial)
	}
	aiaList := iss.leafAIA
	switch {
	case opts.AIAOverride != "":
		aiaList = []string{opts.AIAOverride}
	case opts.OmitAIA:
		aiaList = nil
	}
	return certmodel.SyntheticLeaf(domain, serial, iss.IssuingCA(), notBefore, notAfter, aiaList...)
}

// Issue creates the leaf and assembles the delivery files according to the
// profile's Table 6 characteristics.
func (iss *Issuer) Issue(domain string, notBefore, notAfter time.Time, opts LeafOptions) Delivery {
	leaf := iss.IssueLeaf(domain, notBefore, notAfter, opts)
	d := Delivery{Leaf: leaf}

	// Correct bundle order is leaf-first issuance order: issuing CA, then
	// the CAs above it, optionally the root last.
	correct := make([]*certmodel.Certificate, 0, len(iss.Intermediates)+1)
	for i := len(iss.Intermediates) - 1; i >= 0; i-- {
		correct = append(correct, iss.Intermediates[i])
	}
	if iss.Profile.ProvidesRoot {
		correct = append(correct, iss.Root)
	}
	if iss.Profile.OmitsIntermediate {
		// Drop the topmost intermediate — TAIWAN-CA's missing CA cert.
		trimmed := make([]*certmodel.Certificate, 0, len(correct))
		for _, c := range correct {
			if c == iss.Intermediates[0] {
				continue
			}
			trimmed = append(trimmed, c)
		}
		correct = trimmed
	}

	if iss.Profile.ProvidesCABundle {
		bundle := append([]*certmodel.Certificate(nil), correct...)
		if iss.Profile.BundleReversed {
			for i, j := 0, len(bundle)-1; i < j; i, j = i+1, j-1 {
				bundle[i], bundle[j] = bundle[j], bundle[i]
			}
		}
		d.Bundle = bundle
	}
	if iss.Profile.ProvidesFullchain {
		d.Fullchain = append([]*certmodel.Certificate{leaf}, correct...)
	}
	return d
}
