package core

import (
	"context"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/obs"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/topo"
	"chainchaos/internal/verdictcache"
)

// Profiles is the client matrix every Grader builds: the paper's eight
// models in Table 9 order. A Grader's client i is Profiles[i], and so is
// class i of a Verdicts vector.
var Profiles = clients.All()

func init() {
	if len(Profiles) != len(Verdicts{}) {
		panic("core: Verdicts does not hold one class per profile")
	}
}

// ProfileOf returns the profile in Profiles named client, or nil when no
// model has that name. The profile is shared: callers read it only.
func ProfileOf(client string) *clients.Profile {
	for i := range Profiles {
		if Profiles[i].Name == client {
			return &Profiles[i]
		}
	}
	return nil
}

// Trust is the context the client models are judged in. A differential
// verdict means something only when every client sees the same roots,
// fetcher, preload and clock, so every grading derives its builders here.
type Trust struct {
	// Roots anchors the compliance analysis, and every client's path
	// construction unless Vendors is set.
	Roots *rootstore.Store
	// Vendors, when non-nil, gives each client the store of its profile's
	// Vendor, as deployed.
	Vendors *rootstore.VendorSet
	// Fetcher resolves AIA URIs for the analysis and the AIA-capable
	// clients; nil models a network without AIA.
	Fetcher aia.Fetcher
	// Warm is Firefox's intermediate preload: sealed and read-only, so no
	// verdict depends on what was graded before it. Nil preloads nothing.
	Warm *rootstore.Store
	// Now is the validation time; zero disables validity checks.
	Now time.Time
	// Hostname validates each leaf against the queried domain. Without it
	// the clients build with no domain, and a verdict depends on the list
	// alone.
	Hostname bool
	// Metrics receives the builders' construction counters.
	Metrics *obs.Registry
}

// roots returns the store client p validates against.
func (t Trust) roots(p clients.Profile) *rootstore.Store {
	if t.Vendors == nil {
		return t.Roots
	}
	return t.Vendors.Store(p.Vendor)
}

// Builder wires profile p into a path builder judged in t.
func (t Trust) Builder(p clients.Profile) *pathbuild.Builder {
	return &pathbuild.Builder{
		Policy:  p.Policy,
		Roots:   t.roots(p),
		Fetcher: t.Fetcher,
		Cache:   t.Warm,
		Now:     t.Now,
		Metrics: t.Metrics,
	}
}

// Grader returns a fresh grader judging in t.
func (t Trust) Grader() *Grader {
	g := &Grader{
		hostname: t.Hostname,
		analyzer: compliance.Analyzer{Completeness: compliance.CompletenessConfig{
			Roots:   t.Roots,
			Fetcher: t.Fetcher,
		}},
		builders: make([]*pathbuild.Builder, len(Profiles)),
	}
	for i, p := range Profiles {
		g.builders[i] = t.Builder(p)
	}
	return g
}

// Grader is one goroutine's grading state: the compliance analyzer, the
// topology graph it rebuilds for every list, and one reusable builder per
// profile. Builds for different clients may run at the same time; nothing
// else may. Class reads a verdict straight from the builder's scratch and
// copies nothing out, and Verdicts does so for every client; Build returns
// the whole Outcome, copied out, for callers that keep it.
type Grader struct {
	hostname bool
	analyzer compliance.Analyzer
	graph    topo.Graph
	builders []*pathbuild.Builder
}

// Analyze grades how the list was deployed for domain. The report holds
// nothing of the topology graph, which the next Analyze rebuilds in place.
func (g *Grader) Analyze(list []*certmodel.Certificate, domain string) compliance.Report {
	g.graph.Rebuild(list)
	return g.analyzer.Analyze(domain, &g.graph)
}

// Build runs client i (Profiles[i]) over the list. The domain reaches
// validation only when the trust checks hostnames.
func (g *Grader) Build(i int, list []*certmodel.Certificate, domain string) pathbuild.Outcome {
	if !g.hostname {
		domain = ""
	}
	return g.builders[i].Build(list, domain)
}

// Class returns client i's verdict class for the list: Classify of what
// Build would return, without copying the Outcome out of the builder's
// scratch.
func (g *Grader) Class(i int, list []*certmodel.Certificate, domain string) VerdictClass {
	if !g.hostname {
		domain = ""
	}
	return classify(g.builders[i].BuildScratch(list, domain))
}

// Verdicts returns every client's verdict class for the list, one Class
// after another in Profiles order.
func (g *Grader) Verdicts(list []*certmodel.Certificate, domain string) Verdicts {
	var v Verdicts
	for i := range v {
		v[i] = g.Class(i, list, domain)
	}
	return v
}

// Close publishes the builders' last batch of construction metrics.
func (g *Grader) Close() {
	for _, b := range g.builders {
		b.FlushMetrics()
	}
}

// Memo shares gradings across the sites that present the same list. Its
// key is the list digest, plus the leaf's hostname match when the trust
// checks hostnames: a client's verdict depends on the domain only through
// that bit. The order and completeness reports are stored with the caller's
// value M; leaf placement is the one hostname-dependent report, so each
// site gets its own. A nil *Memo stores nothing.
type Memo[M any] struct {
	cache    *verdictcache.Cache[memoEntry[M]]
	hostname bool
}

// memoEntry is one stored grading.
type memoEntry[M any] struct {
	order        compliance.OrderReport
	completeness compliance.CompletenessReport
	val          M
}

// NewMemo returns an empty memo for gradings judged in t, counting under
// name (<name>.hits, .misses, .inserts, ...) on t.Metrics.
func NewMemo[M any](name string, t Trust) *Memo[M] {
	return &Memo[M]{cache: verdictcache.New[memoEntry[M]](name, t.Metrics), hostname: t.Hostname}
}

// Grade returns the grading of list for domain and whether it was shared.
// On a miss grade computes it; the result is stored unless ctx is done by
// then, because a cancelled grading may have lost AIA fetches mid-chase.
func (m *Memo[M]) Grade(ctx context.Context, list []*certmodel.Certificate, domain string, grade func() (compliance.Report, M)) (compliance.Report, M, bool) {
	if m == nil {
		rep, v := grade()
		return rep, v, false
	}
	key := verdictcache.Key{
		Digest: certmodel.ListDigest(list),
		Match:  m.hostname && len(list) > 0 && list[0].MatchesDomain(domain),
	}
	if e, ok := m.cache.Get(key); ok {
		return compliance.Report{
			Domain:       domain,
			Leaf:         compliance.ClassifyLeafPlacement(list, domain),
			Order:        e.order,
			Completeness: e.completeness,
		}, e.val, true
	}
	rep, v := grade()
	if ctx.Err() == nil {
		m.cache.Put(key, memoEntry[M]{order: rep.Order, completeness: rep.Completeness, val: v})
	}
	return rep, v, false
}
