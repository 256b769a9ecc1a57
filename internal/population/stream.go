// Streaming population generation: a Source builds the shared PKI context
// (hierarchies, AIA repository, vendor stores) once, then emits domains rank
// by rank through the pipeline engine, so consumers can process a
// million-site population holding only O(workers · queue) domains in memory.
// Generate is the batch adapter over the same path.
package population

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/parallel"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/rootstore"
)

// Source is a prepared population whose domains have not been generated yet.
// It owns everything the domains share — issuer hierarchies, the AIA
// repository, the sealed vendor stores — while each domain itself is derived
// from (Config.Seed, rank) alone, so streaming and batch generation are
// bit-identical for any worker count or resume point.
type Source struct {
	cfg         Config
	pop         *Population
	hierarchies []hierarchy
	weightTotal float64
	scenarios   []*MaterializedScenario
}

// NewSource builds the shared PKI context for cfg without generating any
// domains. The returned Source is safe for concurrent Generator use.
func NewSource(cfg Config) *Source {
	cfg.fillDefaults()
	repo := aia.NewRepository()

	hierarchies := buildHierarchies(cfg, repo)

	var allRoots []*certmodel.Certificate
	omitsOf := make(map[certmodel.FP][]rootstore.Vendor)
	for _, h := range hierarchies {
		allRoots = append(allRoots, h.iss.Root, h.iss.CrossRoot)
		if h.storeOmit != nil {
			omitsOf[h.iss.Root.Fingerprint()] = h.storeOmit
		}
	}
	// Injected scenarios contribute their trust anchors (to every vendor
	// store — the fuzzer graded them against a shared warm context) and their
	// AIA repository entries before the stores seal below.
	var scenarios []*MaterializedScenario
	for _, s := range cfg.Scenarios {
		m, err := s.Materialize()
		if err != nil {
			// LoadScenarios validates at load time; reaching this means the
			// caller handed Config.Scenarios unvalidated specs.
			panic(fmt.Sprintf("population: scenario %q does not materialize: %v", s.Name, err))
		}
		allRoots = append(allRoots, m.Roots...)
		scenarios = append(scenarios, m)
	}
	vendors := rootstore.NewVendorSet(allRoots, func(root *certmodel.Certificate, vendor rootstore.Vendor) bool {
		return slices.Contains(omitsOf[root.Fingerprint()], vendor)
	})
	// The vendor stores are complete; freeze them so every build across the
	// population reads them lock-free.
	vendors.Seal()

	pop := &Population{Cfg: cfg, Repo: repo, Vendors: vendors}
	for _, h := range hierarchies {
		pop.Issuers = append(pop.Issuers, h.iss)
	}

	// Pre-register the shared dead and wrong AIA endpoints.
	repo.PutError(aiaBase+"/dead/ca.der", fmt.Errorf("connection refused"))
	wrongTarget := certmodel.SyntheticRoot("Wrong AIA Target", cfg.Base)
	repo.Put(aiaBase+"/wrong/ca.der", wrongTarget)

	for _, m := range scenarios {
		uris, certs := m.AIAEntries()
		for i, uri := range uris {
			repo.Put(uri, certs[i])
		}
	}

	weightTotal := 0.0
	for i := range hierarchies {
		weightTotal += hierarchies[i].weight
	}
	return &Source{cfg: cfg, pop: pop, hierarchies: hierarchies, weightTotal: weightTotal, scenarios: scenarios}
}

// Population returns the PKI context (issuers, AIA repository, vendor
// stores) with Domains left nil; streaming consumers analyze against it
// without ever materializing the domain slice.
func (s *Source) Population() *Population { return s.pop }

// Size is the number of domains the source will emit.
func (s *Source) Size() int { return s.cfg.Size }

// Generator generates domains on demand. It is single-goroutine state:
// create one per worker (each Domain call is deterministic in the rank, so
// which generator serves which rank never matters).
type Generator struct {
	gen *generator
	// slots memoizes the chain-reuse slot templates this generator has
	// materialized. Templates are deterministic in (Seed, slot), so each
	// worker regenerating the slots it encounters yields identical domains;
	// the memo only amortizes the work.
	slots map[int]*Domain
	// scenarios are the source's materialized injectable scenarios, shared
	// read-only across workers.
	scenarios []*MaterializedScenario
}

// Generator returns a fresh domain generator bound to this source's context.
func (s *Source) Generator() *Generator {
	return &Generator{gen: &generator{
		cfg:         s.cfg,
		rng:         rand.New(newLazySource(0)),
		hierarchies: s.hierarchies,
		repo:        s.pop.Repo,
		weightTotal: s.weightTotal,
	}, slots: make(map[int]*Domain), scenarios: s.scenarios}
}

// Domain generates the domain at rank (1-based, matching Domain.Rank). The
// rng is reseeded from (Seed, rank) per call, so output depends only on the
// rank, never on call order. Under Config.ChainReuse, reusing ranks
// materialize from their slot template instead (see reuse.go), and under
// Config.Scenarios the scenario coin is checked first (see scenario.go) —
// each still a pure function of the rank.
func (g *Generator) Domain(rank int) *Domain {
	if inject, idx := g.gen.cfg.scenarioPlan(rank); inject {
		return g.scenarioDomain(rank, idx)
	}
	if shared, slot := g.gen.cfg.reusePlan(rank); shared {
		return g.sharedDomain(rank, slot)
	}
	g.gen.rng.Seed(domainSeed(g.gen.cfg.Seed, rank))
	return g.gen.domain(rank)
}

// Flow emits the population's domains as a pipeline flow in rank order.
// Pipeline ranks are 0-based; the domain at pipeline rank r carries
// Domain.Rank r+1. The source and the generate stage take the engine's
// default depth.
func (s *Source) Flow(ctx context.Context, opts pipeline.Options) *pipeline.Flow[*Domain] {
	workers := parallel.Workers(s.cfg.Workers)
	gens := make([]*Generator, workers)
	src := pipeline.From(ctx, opts, "ranks", 0, func(rank int) (int, bool, error) {
		return rank, rank < s.cfg.Size, nil
	})
	return pipeline.Through(src, pipeline.Stage[int, *Domain]{
		Name:    "generate",
		Workers: workers,
		OnWorker: func(worker int) func() {
			gens[worker] = s.Generator()
			return nil
		},
		Fn: func(_ context.Context, worker, rank int, _ int) (*Domain, error) {
			return gens[worker].Domain(rank + 1), nil
		},
	})
}

// Each streams every domain, in rank order, to yield without retaining them.
// A yield error stops the stream and is returned.
func (s *Source) Each(ctx context.Context, opts pipeline.Options, yield func(d *Domain) error) error {
	return s.Flow(ctx, opts).Drain(func(_ int, d *Domain) error {
		return yield(d)
	})
}
