// Package population generates a synthetic Tranco-like web population whose
// certificate-chain deployments reproduce, mechanically, the
// misconfiguration landscape the paper measured in March 2024: reversed
// bundles merged verbatim from reseller deliveries, duplicate leaves from
// Apache's two-file layout, stale leaves left behind by renewals, stray
// cross-signed certificates, and missing intermediates — at rates calibrated
// per CA (Table 11) and per HTTP server (Table 10).
//
// Every chain is produced by the same pipeline a real deployment follows:
// a CA profile issues and delivers files (internal/ca), an administrator
// assembles them (correctly or not), and an HTTP server model deploys them,
// enforcing its configuration-time checks (internal/httpserver). Ground
// truth about each injected defect is recorded alongside the deployed list
// so analyzers can be scored against it.
package population

import (
	"context"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/rootstore"
)

// Config parameterizes generation.
type Config struct {
	// Size is the number of domains (the paper's dataset holds 906,336
	// chains; experiments default to a scaled-down population).
	Size int
	// Seed makes the population reproducible.
	Seed int64
	// Base is the measurement reference time; leaf validity windows are
	// placed around it. The zero value uses 2024-03-15, the paper's scan
	// month.
	Base time.Time
	// Workers bounds the goroutines generating domains; <= 0 means
	// GOMAXPROCS. Every domain derives its randomness from (Seed, rank)
	// alone, so the population is bit-identical for any worker count.
	Workers int
	// ChainReuse is the fraction of sites that present a chain drawn from a
	// shared pool instead of minting their own — the paper's population
	// shape, where the Top-1M presents only a few thousand distinct
	// certificate lists. 0 disables reuse (every site unique, the historical
	// behavior). The reuse coin and the slot pick are drawn from their own
	// splitmix64 streams keyed by (Seed, rank), so they are worker-invariant
	// and leave the non-reuse output byte-identical.
	ChainReuse float64
	// ChainPool is the shared pool size when ChainReuse > 0 (default 3000).
	// Slots are picked with a power-law skew: a handful of hosting-provider
	// chains dominate, with a long tail, as in the paper's dataset.
	ChainPool int
	// Scenarios are fuzzer-discovered chain topologies to inject: at
	// ScenarioRate, a site presents a scenario's chain verbatim instead of
	// generating one (see scenario.go). The scenario coin and pick are
	// salted per-rank streams, so injection is worker-invariant and an empty
	// Scenarios leaves the population byte-identical.
	Scenarios []Scenario
	// ScenarioRate is the fraction of sites presenting an injected scenario
	// when Scenarios is non-empty.
	ScenarioRate float64
}

// aiaBase is the URI prefix for the simulated CA repositories.
const aiaBase = "http://aia.repo.example"

func (c *Config) fillDefaults() {
	if c.Size <= 0 {
		c.Size = 10000
	}
	if c.Base.IsZero() {
		c.Base = time.Date(2024, time.March, 15, 12, 0, 0, 0, time.UTC)
	}
	if c.ChainReuse > 0 && c.ChainPool <= 0 {
		c.ChainPool = 3000
	}
}

// IrrelevantKind details an irrelevant-certificate injection.
type IrrelevantKind int

const (
	IrrelevantNone IrrelevantKind = iota
	// IrrelevantStaleLeaves: outdated leaf certificates not removed during
	// renewal (the webcanny.com shape).
	IrrelevantStaleLeaves
	// IrrelevantForeignChain: certificates belonging to another chain
	// managed by the same administrator (the archives.gov.tw shape).
	IrrelevantForeignChain
	// IrrelevantUnrelatedRoot: a stray self-signed certificate.
	IrrelevantUnrelatedRoot
)

// Truth records the defects injected into one domain's deployment — the
// ground-truth labels analyzers are scored against.
type Truth struct {
	DuplicateLeaf         bool
	DuplicateIntermediate bool
	DuplicateRoot         bool
	// DuplicatePrevented: a duplicate-leaf upload was attempted but the
	// server's check rejected it and the administrator fixed the files.
	DuplicatePrevented bool

	Irrelevant     IrrelevantKind
	MultiplePaths  bool
	CrossMisplaced bool // the cross-signed certificate precedes its issuer
	CrossExpired   bool
	Reversed       bool

	Incomplete   bool
	MissingCount int
	AIAMissing   bool
	AIADead      bool
	AIAWrong     bool

	IncludesRoot bool
	LeafMismatch bool
	LeafOther    bool
	LeafExpired  bool
}

// NonCompliant reports whether any structural defect was injected (leaf
// identity mismatches are not structural).
func (t Truth) NonCompliant() bool {
	return t.DuplicateLeaf || t.DuplicateIntermediate || t.DuplicateRoot ||
		t.Irrelevant != IrrelevantNone || t.MultiplePaths || t.Reversed || t.Incomplete
}

// Domain is one generated website deployment.
type Domain struct {
	Rank   int
	Name   string
	CA     string
	Server string
	List   []*certmodel.Certificate
	Truth  Truth
	// Shared marks a domain presenting a pooled chain (Config.ChainReuse):
	// its List and Truth are the slot template's, only Rank and Name are its
	// own. Shared domains of one slot compare digest-equal, which is what
	// the verdict dedup cache exploits.
	Shared bool
	// Scenario names the injected scenario when the domain presents a
	// fuzzer-discovered chain (Config.Scenarios); empty otherwise. Scenario
	// domains carry a zero Truth — their defects are the fuzzer's discovery,
	// not this generator's injection.
	Scenario string
}

// Population is the generated dataset plus the PKI context needed to analyze
// it: the CA hierarchies, the AIA repository and the vendor root stores.
type Population struct {
	Cfg     Config
	Domains []*Domain
	Issuers []*ca.Issuer
	Repo    *aia.Repository
	Vendors *rootstore.VendorSet
}

// Roots returns the four-vendor union store, the paper's measurement
// baseline.
func (p *Population) Roots() *rootstore.Store { return p.Vendors.Union }

// hierarchy couples an issuer instance with its assignment weight.
type hierarchy struct {
	iss    *ca.Issuer
	weight float64
	// storeOmit lists the vendors whose store lacks this hierarchy's root.
	storeOmit []rootstore.Vendor
}

// Generate builds the population. It is the batch adapter over the streaming
// Source: domains are produced by the pipeline's worker pool — randomness
// seeded per rank from (Seed, rank), bit-identical for any worker count —
// and collected into Domains in rank order.
func Generate(cfg Config) *Population {
	s := NewSource(cfg)
	pop := s.Population()
	pop.Domains = make([]*Domain, 0, s.Size())
	err := s.Each(context.Background(), pipeline.Options{}, func(d *Domain) error {
		pop.Domains = append(pop.Domains, d)
		return nil
	})
	if err != nil {
		// Unreachable: generation never errors and the context is never
		// cancelled; a pipeline invariant broke if we get here.
		panic(err)
	}
	return pop
}

// domainSeed mixes the population seed and a domain rank into an independent
// stream seed (splitmix64 finalizer over the combined words).
func domainSeed(seed int64, rank int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// buildHierarchies instantiates the CA hierarchies: for each Table 11
// profile one fully modern hierarchy ("a") and one whose top intermediate
// lacks an AKID ("b", the Table 8 lever), split 73/27; plus three tiny
// regional CAs with partial vendor-store coverage and no AIA.
func buildHierarchies(cfg Config, repo *aia.Repository) []hierarchy {
	var out []hierarchy
	for _, p := range ca.Profiles() {
		a := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: p, Base: cfg.Base.AddDate(-3, 0, 0), Tag: "a", AIABase: aiaBase})
		b := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: p, Base: cfg.Base.AddDate(-3, 0, 0), Tag: "b", AIABase: aiaBase, TopNoAKID: true})
		a.RegisterAIA(repo.Put)
		b.RegisterAIA(repo.Put)
		out = append(out, hierarchy{iss: a, weight: p.MarketShare * 0.73})
		out = append(out, hierarchy{iss: b, weight: p.MarketShare * 0.27})
	}

	regional := func(name string, share float64, omit ...rootstore.Vendor) hierarchy {
		prof := ca.Profile{
			Name: name, ProvidesCABundle: true, InstallGuide: ca.GuidePartial, Undisclosed: true,
			MarketShare: share,
			Rates:       ca.MisconfigRates{Incomplete: 0.02, Reversed: 0.02},
		}
		iss := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: prof, Base: cfg.Base.AddDate(-5, 0, 0), Tag: "r"})
		return hierarchy{iss: iss, weight: share, storeOmit: omit}
	}
	// Roots carried only by some vendors, AIA-less: the with-AIA rows of
	// Table 8 (Mozilla/Chrome +66, Microsoft +5, Apple +4 at full scale).
	out = append(out,
		regional("TW Government CA", 66.0/906336, rootstore.Mozilla, rootstore.Chrome),
		regional("EU Qualified CA", 5.0/906336, rootstore.Microsoft),
		regional("Regional Commerce CA", 4.0/906336, rootstore.Apple),
	)

	// A publicly trusted but CCADB-lagging hierarchy: its intermediates
	// are absent from Firefox's preloaded cache, so its incomplete chains
	// become the browser-side I-4 discrepancies (the paper's 1,074
	// SEC_ERROR_UNKNOWN_ISSUER chains, ~9% of all incomplete chains). AIA
	// works, so AIA-capable clients recover.
	undisclosed := ca.Profile{
		Name: "Undisclosed Enterprise CA", ProvidesCABundle: true,
		InstallGuide: ca.GuideNone, Undisclosed: true,
		MarketShare: 0.004,
		Rates:       ca.MisconfigRates{Duplicate: 0.01, Reversed: 0.03, Incomplete: 0.30},
	}
	uiss := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: undisclosed, Base: cfg.Base.AddDate(-2, 0, 0), Tag: "u", AIABase: aiaBase})
	uiss.RegisterAIA(repo.Put)
	out = append(out, hierarchy{iss: uiss, weight: undisclosed.MarketShare})
	return out
}

// pickHierarchy samples an issuer by weight.
func (g *generator) pickHierarchy() *hierarchy {
	x := g.rng.Float64() * g.weightTotal
	for i := range g.hierarchies {
		x -= g.hierarchies[i].weight
		if x <= 0 {
			return &g.hierarchies[i]
		}
	}
	return &g.hierarchies[len(g.hierarchies)-1]
}
