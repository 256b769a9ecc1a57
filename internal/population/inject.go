package population

import (
	"math/rand"
	"slices"
	"strconv"

	"chainchaos/internal/aia"
	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/httpserver"
)

// generator holds per-worker state. One generator serves a whole shard of
// ranks; rng is reseeded per domain from (Config.Seed, rank), and rank-scoped
// serials replace run-global counters so output never depends on which worker
// generated which domain.
//
// Concurrency audit: rng is the only random state in the package and it is
// strictly per-worker — never the global source, never shared across
// goroutines — so there is no Rand data race, and the per-rank reseed makes
// every draw a pure function of (Seed, rank) regardless of worker count or
// resume point. Its source is the lazily seeded replica of
// rand.NewSource (rng.go), whose package-level tables are read-only after
// initialization.
type generator struct {
	cfg         Config
	rng         *rand.Rand
	hierarchies []hierarchy
	repo        *aia.Repository
	weightTotal float64
	rank        int // rank of the domain currently being generated
	// nameOverride, when non-empty, replaces the drawn site name — the slot
	// templates of the chain-reuse pool use it to mint wildcard leaves. The
	// tld draw still happens, so the override never shifts the rng stream.
	nameOverride string
	// chain and full are the scratch a domain's list is assembled in: the
	// certificate bundle after the leaf, and the fullchain file handed to
	// the server model. The model's Deploy copies out the list the domain
	// keeps, so nothing of the scratch outlives the domain's generation.
	chain, full []*certmodel.Certificate
}

// ServerProfile is one fingerprinted HTTP server population: the name its
// sites report, its share of sites, its Table 10 calibration and how it
// deploys a certificate list.
type ServerProfile struct {
	// Name is the fingerprint a domain records as its Server.
	Name string
	// Short, when set, heads the server's Table 10 column instead of Name.
	Short string
	share float64
	f     factors
	// model returns the deployment model of one site. Apache's draws which
	// generation the site runs, so it consumes one rng draw.
	model func(rng *rand.Rand) httpserver.Model
}

// Column is the server's Table 10 column header.
func (s *ServerProfile) Column() string {
	if s.Short != "" {
		return s.Short
	}
	return s.Name
}

// factors scale the CA's per-type misconfiguration rates by HTTP server,
// calibrated from Table 10 (a server's share within a defect type divided
// by its overall share). Azure's duplicate factor models attempts — its
// upload check then cancels them.
type factors struct{ dup, irr, multi, rev, inc float64 }

// serverProfiles is the server mix, in Table 10's column order. It skews
// toward Apache and Nginx as in the paper's fingerprinting (Appendix B);
// "cloudflare" deployments are fully managed, and the last entry, "Other",
// is the long tail that every unlisted server falls into.
var serverProfiles = []ServerProfile{
	{Name: "Apache", share: 0.31, model: apacheModel,
		f: factors{dup: 1.8, irr: 1.35, multi: 0.85, rev: 0.6, inc: 1.0}},
	{Name: "Nginx", share: 0.34, model: fixedModel(httpserver.Nginx),
		f: factors{dup: 0.65, irr: 0.9, multi: 1.4, rev: 1.1, inc: 1.15}},
	{Name: "Microsoft-Azure-Application-Gateway", Short: "Azure", share: 0.04, model: fixedModel(httpserver.AzureAppGateway),
		f: factors{dup: 0.5, irr: 0.25, multi: 0.1, rev: 2.6, inc: 0.4}},
	{Name: "cloudflare", share: 0.10, model: nginxNamed("cloudflare"),
		f: factors{dup: 1.0, irr: 1.0, multi: 0.8, rev: 1.0, inc: 0.9}},
	{Name: "IIS", share: 0.04, model: fixedModel(httpserver.IIS),
		f: factors{dup: 0.6, irr: 0.5, multi: 0.9, rev: 1.35, inc: 1.0}},
	{Name: "AWS ELB", share: 0.03, model: fixedModel(httpserver.AWSELB),
		f: factors{dup: 2.4, irr: 0.6, multi: 0.4, rev: 1.1, inc: 0.8}},
	{Name: "Other", share: 0.14, model: nginxNamed("Other"),
		f: factors{dup: 1.0, irr: 0.7, multi: 1.05, rev: 1.4, inc: 1.0}},
}

// ServerProfiles returns the fingerprinted server populations in Table 10's
// column order; the last one is the long tail.
func ServerProfiles() []ServerProfile { return slices.Clone(serverProfiles) }

// apacheModel deploys like a pre-2.4.8 split-file config on 40% of sites:
// a large installed base still runs one.
func apacheModel(rng *rand.Rand) httpserver.Model {
	if rng.Float64() < 0.4 {
		return httpserver.ApacheOld()
	}
	return httpserver.Apache()
}

// fixedModel deploys every site with the model m returns.
func fixedModel(m func() httpserver.Model) func(*rand.Rand) httpserver.Model {
	return func(*rand.Rand) httpserver.Model { return m() }
}

// nginxNamed deploys like Nginx under another fingerprint.
func nginxNamed(name string) func(*rand.Rand) httpserver.Model {
	return func(*rand.Rand) httpserver.Model {
		m := httpserver.Nginx()
		m.Name = name
		return m
	}
}

var leafTLDs = []string{"com", "net", "org", "io", "dev", "co", "info", "app"}

func (g *generator) pickServer() *ServerProfile {
	x := g.rng.Float64()
	for i := range serverProfiles {
		x -= serverProfiles[i].share
		if x <= 0 {
			return &serverProfiles[i]
		}
	}
	return &serverProfiles[len(serverProfiles)-1]
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}

// domain generates one deployment end to end.
func (g *generator) domain(rank int) *Domain {
	g.rank = rank
	h := g.pickHierarchy()
	iss := h.iss
	server := g.pickServer()
	model := server.model(g.rng)
	name := Padded("site-", rank, 6, "."+leafTLDs[g.rng.Intn(len(leafTLDs))])
	if g.nameOverride != "" {
		name = g.nameOverride
	}

	d := &Domain{Rank: rank, Name: name, CA: iss.Profile.Name, Server: server.Name}
	t := &d.Truth

	rates := iss.Profile.Rates
	f := server.f

	// Sample the defect events up front; the mechanics below realize them.
	dup := g.rng.Float64() < clampProb(rates.Duplicate*f.dup)
	irr := g.rng.Float64() < clampProb(rates.Irrelevant*f.irr)
	multi := g.rng.Float64() < clampProb(rates.MultiplePaths*f.multi)
	rev := g.rng.Float64() < clampProb(rates.Reversed*f.rev)
	inc := g.rng.Float64() < clampProb(rates.Incomplete*f.inc)
	t.IncludesRoot = !inc && g.rng.Float64() < 0.092

	// Leaf identity. ~0.6% of sites serve a self-signed test certificate
	// ("Plesk", "localhost", empty CN); ~7% serve a certificate for a
	// different name (shared hosting fallback).
	if g.rng.Float64() < 0.006 {
		return g.otherLeafDomain(d)
	}
	t.LeafMismatch = g.rng.Float64() < 0.069
	t.LeafExpired = g.rng.Float64() < 0.008

	leafOpts := g.leafAIAOptions(t, iss, inc)
	leafOpts.Serial = Padded("r", rank, 6, "")
	leafName := name
	if t.LeafMismatch {
		leafName = Padded("fallback-", g.rng.Intn(500), 3, ".hosting.example")
	}
	nb, na := g.cfg.Base.AddDate(0, -3, 0), g.cfg.Base.AddDate(0, 9, 0)
	if t.LeafExpired {
		nb, na = g.cfg.Base.AddDate(-1, -3, 0), g.cfg.Base.AddDate(0, -1, 0)
	}
	leaf := iss.IssueLeaf(leafName, nb, na, leafOpts)

	// Assemble the intermediate block in correct order: issuing CA first,
	// then upward, root last when included.
	inters := correctOrder(g.chain[:0], iss, t.IncludesRoot)
	g.chain = inters[:0]

	// The CA may itself omit an intermediate (TAIWAN-CA).
	forceIncomplete := iss.Profile.OmitsIntermediate && g.rng.Float64() < 0.8
	if inc || forceIncomplete {
		inters = g.dropIntermediates(t, iss, inters)
	}

	if multi {
		inters = g.insertCrossSigned(t, iss, inters)
	}

	if rev && len(inters) > 1 {
		reverse(inters)
		t.Reversed = true
	}

	if irr {
		inters = g.appendIrrelevant(t, iss, leafName, inters)
	}

	list := g.deploy(t, model, leaf, inters, dup)
	d.List = list
	return d
}

// leafAIAOptions decides the leaf's AIA shape, realizing the paper's AIA
// failure taxonomy among incomplete chains: ~4.8% lack the extension, ~0.7%
// reference a dead URI, and a single chain pointed at a non-issuer.
func (g *generator) leafAIAOptions(t *Truth, iss *ca.Issuer, incomplete bool) ca.LeafOptions {
	if !incomplete {
		return ca.LeafOptions{}
	}
	switch x := g.rng.Float64(); {
	case x < 0.048:
		t.AIAMissing = true
		return ca.LeafOptions{OmitAIA: true}
	case x < 0.055:
		t.AIADead = true
		return ca.LeafOptions{AIAOverride: aiaBase + "/dead/ca.der"}
	case x < 0.0555:
		t.AIAWrong = true
		return ca.LeafOptions{AIAOverride: aiaBase + "/wrong/ca.der"}
	default:
		return ca.LeafOptions{}
	}
}

// correctOrder appends the issuer's certificates to dst in correct order:
// issuing CA first, then upward, root last when included.
func correctOrder(dst []*certmodel.Certificate, iss *ca.Issuer, includeRoot bool) []*certmodel.Certificate {
	for i := len(iss.Intermediates) - 1; i >= 0; i-- {
		dst = append(dst, iss.Intermediates[i])
	}
	if includeRoot {
		dst = append(dst, iss.Root)
	}
	return dst
}

func reverse(s []*certmodel.Certificate) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// dropIntermediates realizes an incomplete chain: 72% miss exactly one
// intermediate, the rest miss more. Chains carrying an injected AIA failure
// (missing extension, dead URI, wrong target) drop everything: the failure
// lives in the leaf, so the leaf must be the dangling certificate.
func (g *generator) dropIntermediates(t *Truth, iss *ca.Issuer, inters []*certmodel.Certificate) []*certmodel.Certificate {
	t.Incomplete = true
	top := iss.Intermediates[0]
	if t.AIAMissing || t.AIADead || t.AIAWrong {
		t.MissingCount = len(iss.Intermediates)
		return nil
	}
	if g.rng.Float64() < 0.722 {
		t.MissingCount = 1
		out := inters[:0:0]
		for _, c := range inters {
			if c.Equal(top) || c.Equal(iss.Root) {
				continue
			}
			out = append(out, c)
		}
		return out
	}
	t.MissingCount = len(iss.Intermediates)
	return nil
}

// insertCrossSigned realizes a multiple-path chain by adding the
// cross-signed variant of the top intermediate, usually at the wrong
// position (before its own issuer), which also reverses that path.
func (g *generator) insertCrossSigned(t *Truth, iss *ca.Issuer, inters []*certmodel.Certificate) []*certmodel.Certificate {
	cross := iss.CrossSigned
	if g.rng.Float64() < 0.12 {
		// Stale cross-signed certificate never renewed (29 such chains in
		// the paper).
		cross = expiredCross(iss)
		t.CrossExpired = true
	}
	t.MultiplePaths = true

	switch x := g.rng.Float64(); {
	case x < 0.35 && len(inters) > 0:
		// Misplaced: the cross-signed certificate lands AFTER its own
		// issuer in the list (the Figure 2c shape) — the cross path reads
		// issuer-before-subject and is therefore reversed, while the
		// direct path stays in order.
		t.CrossMisplaced = true
		t.Reversed = true
		out := []*certmodel.Certificate{inters[0], iss.CrossRoot, cross}
		out = append(out, inters[1:]...)
		return out
	case x < 0.60:
		// Correctly appended cross block: an additional, in-order path.
		block := []*certmodel.Certificate{cross}
		if g.rng.Float64() < 0.5 {
			block = append(block, iss.CrossRoot)
		}
		return append(inters, block...)
	default:
		// Root-level cross-signing: the chain carries both the trusted
		// self-signed root and a cross-signed certificate for the same
		// key — the dominant same-DN/same-KID candidate pair of §6.2
		// (744 of 785 chains).
		if !t.IncludesRoot {
			t.IncludesRoot = true
			inters = append(inters, iss.Root)
		}
		return append(inters, iss.RootCrossSigned)
	}
}

// expiredCross derives an expired cross-signed variant for the issuer's top
// intermediate.
func expiredCross(iss *ca.Issuer) *certmodel.Certificate {
	top := iss.Intermediates[0]
	return certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject:               top.Subject,
		Issuer:                iss.CrossRoot.Subject,
		Serial:                "cross-expired-" + iss.Profile.Name + "-" + iss.Tag,
		NotBefore:             top.NotBefore.AddDate(-6, 0, 0),
		NotAfter:              top.NotBefore.AddDate(-1, 0, 0),
		Key:                   certmodel.KeyOf(top),
		SignedBy:              certmodel.KeyOf(iss.CrossRoot),
		KeyUsage:              certmodel.KeyUsageCertSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})
}

// appendIrrelevant realizes the irrelevant-certificate taxonomy of §4.2.
func (g *generator) appendIrrelevant(t *Truth, iss *ca.Issuer, leafName string, inters []*certmodel.Certificate) []*certmodel.Certificate {
	switch x := g.rng.Float64(); {
	case x < 0.5:
		// Stale leaves from prior renewals, newest first.
		t.Irrelevant = IrrelevantStaleLeaves
		n := 1 + g.rng.Intn(4)
		var stale []*certmodel.Certificate
		for i := 1; i <= n; i++ {
			nb := g.cfg.Base.AddDate(-i, -3, 0)
			old := certmodel.SyntheticLeaf(leafName, Padded("stale-", g.rank, 6, "-"+strconv.Itoa(i)), iss.IssuingCA(), nb, nb.AddDate(1, 0, 0))
			stale = append(stale, old)
		}
		return append(stale, inters...)
	case x < 0.8:
		// A block of another hierarchy's chain kept by the same admin.
		t.Irrelevant = IrrelevantForeignChain
		other := &g.hierarchies[g.rng.Intn(len(g.hierarchies))]
		if other.iss == iss {
			other = &g.hierarchies[(g.rng.Intn(len(g.hierarchies))+1)%len(g.hierarchies)]
		}
		block := []*certmodel.Certificate{other.iss.Intermediates[1], other.iss.Intermediates[0]}
		if g.rng.Float64() < 0.4 {
			block = append(block, other.iss.Root)
		}
		return append(inters, block...)
	default:
		t.Irrelevant = IrrelevantUnrelatedRoot
		stray := certmodel.SyntheticRoot(Padded("Stray Root ", g.rng.Intn(100), 4, ""), g.cfg.Base.AddDate(-6, 0, 0))
		return append(inters, stray)
	}
}

// deploy pushes the assembled files through the HTTP server model,
// reproducing the duplicate-leaf mechanism (split-file confusion) and the
// servers' checks. It may append to chain, the domain's own bundle; the list
// it returns shares nothing with chain or the generator's scratch.
func (g *generator) deploy(t *Truth, model httpserver.Model, leaf *certmodel.Certificate, chain []*certmodel.Certificate, wantDup bool) []*certmodel.Certificate {
	if wantDup {
		switch r := g.rng.Float64(); {
		case r < 0.70:
			// Leaf pasted into the bundle too. 85% of those land at the
			// front (the paper: 4,231 of 4,730 have both copies leading).
			if g.rng.Float64() < 0.85 {
				chain = append([]*certmodel.Certificate{leaf}, chain...)
			} else {
				chain = append(chain, leaf)
			}
			t.DuplicateLeaf = true
		case r < 0.93:
			if len(chain) > 0 {
				dupOf := chain[g.rng.Intn(len(chain))]
				reps := 1
				if g.rng.Float64() < 0.03 {
					reps = 8 + g.rng.Intn(5) // the ns3.link 29-cert shape
				}
				for i := 0; i < reps; i++ {
					chain = append(chain, dupOf)
				}
				if dupOf.SelfSigned() {
					t.DuplicateRoot = true
				} else {
					t.DuplicateIntermediate = true
				}
			}
		default:
			if t.IncludesRoot && len(chain) > 0 {
				chain = append(chain, chain[len(chain)-1])
				t.DuplicateRoot = true
			} else if len(chain) > 0 {
				chain = append(chain, chain[len(chain)-1])
				t.DuplicateIntermediate = true
			}
		}
	}

	in := httpserver.ConfigInput{PrivateKeyFor: leaf}
	certFile := [1]*certmodel.Certificate{leaf}
	switch model.Scheme {
	case httpserver.SchemeSplit:
		in.CertFile = certFile[:]
		in.ChainFile = chain
	default:
		g.full = append(append(g.full[:0], leaf), chain...)
		in.Fullchain = g.full
	}

	list, err := model.Deploy(in)
	if err == httpserver.ErrDuplicateLeaf {
		// The server rejected the upload; the administrator removes the
		// surplus copy and retries.
		t.DuplicateLeaf = false
		t.DuplicatePrevented = true
		fixed := chain[:0:0]
		for _, c := range chain {
			if c.Equal(leaf) {
				continue
			}
			fixed = append(fixed, c)
		}
		in.ChainFile = fixed
		in.Fullchain = append([]*certmodel.Certificate{leaf}, fixed...)
		list, err = model.Deploy(in)
	}
	if err != nil {
		// Configuration failed outright; the site would serve no usable
		// chain. Model it as leaf-only.
		return []*certmodel.Certificate{leaf}
	}
	return list
}

// otherLeafDomain produces the "Other" leaf category: a standalone
// self-signed testing certificate.
func (g *generator) otherLeafDomain(d *Domain) *Domain {
	d.Truth.LeafOther = true
	cn := []string{"Plesk", "localhost", "testexp", ""}[g.rng.Intn(4)]
	id := "other-" + strconv.Itoa(d.Rank)
	key := certmodel.NewSyntheticKey(id)
	subject := certmodel.Name{CommonName: cn}
	cert := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: subject, Issuer: subject,
		Serial:    id,
		NotBefore: g.cfg.Base.AddDate(-1, 0, 0), NotAfter: g.cfg.Base.AddDate(9, 0, 0),
		Key: key, SignedBy: key,
		BasicConstraintsValid: true,
	})
	d.List = []*certmodel.Certificate{cert}
	return d
}

// Padded returns prefix, then n in decimal zero-padded to width characters,
// then suffix: fmt.Sprintf(prefix+"%0*d"+suffix, width, n) in one
// allocation. As with fmt, a minus sign comes first and counts toward the
// width, so the slot templates' negative ranks read "r-00001".
func Padded(prefix string, n, width int, suffix string) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	u := uint64(n)
	if n < 0 {
		b = append(b, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	b = append(b, d...)
	return string(append(b, suffix...))
}
