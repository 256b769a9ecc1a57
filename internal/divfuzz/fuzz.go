// The evolutionary scheduler: generations of mutants flow through the
// pipeline engine — parallel evaluation, serial rank-ordered admission — so
// a fixed seed reproduces the identical corpus, minimized divergence set,
// and bin counts for any worker count.
package divfuzz

import (
	"bytes"
	"context"
	"sort"
	"strings"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/difftest"
	"chainchaos/internal/obs"
	"chainchaos/internal/parallel"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/verdictcache"
)

// Config parameterizes a fuzzing run.
type Config struct {
	// Seed drives everything: the seed population, every mutation draw,
	// every parent pick. Two runs with equal Config produce byte-identical
	// manifests.
	Seed int64
	// Generations is the number of evolutionary rounds after the seed
	// corpus is evaluated (default 8).
	Generations int
	// PerGen is the number of mutants bred per generation (default 256).
	PerGen int
	// SeedDomains is the size of the seed population whose deployed lists
	// form generation zero (default 48). Defective seed domains diverge
	// immediately, so the known I-1…I-4 classes are rediscovered before any
	// mutation runs.
	SeedDomains int
	// MaxMuts bounds genome length; breeding past it first drops a random
	// mutation (default 6).
	MaxMuts int
	// Workers bounds evaluation parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Dedup enables the shared verdict-vector cache: mutants reaching a
	// list digest already graded reuse its vector. Hit counters race and
	// are excluded from the manifest; results are unaffected.
	Dedup bool
	// Metrics receives mutants/divergence/bin counters, the rebuild memos'
	// divfuzz.rebuilds and divfuzz.rebuild_hits, the per-generation engine
	// metrics (divfuzz.breed and divfuzz.evaluate) and generation zero's
	// time (divfuzz.seed.latency, one observation per Run).
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Generations <= 0 {
		c.Generations = 8
	}
	if c.PerGen <= 0 {
		c.PerGen = 256
	}
	if c.SeedDomains <= 0 {
		c.SeedDomains = 48
	}
	if c.MaxMuts <= 0 {
		c.MaxMuts = 6
	}
}

// Divergence is one confirmed, minimized divergence.
type Divergence struct {
	// Found is the genome as discovered; Minimized its delta-debugged
	// canonical form, whose Digest identifies the divergence.
	Found     Genome
	Minimized Genome
	Digest    string
	// Signature is the verdict vector that triggered admission.
	Signature string
	// Causes holds the attributed I-classes ("I-1".."I-4"); empty when the
	// topology falls outside the known classes.
	Causes []string
	// Novel marks a divergence with no I-class attribution — the fuzzer's
	// actual discoveries, exported as scenarios.
	Novel bool
	// Domain is the base domain's hostname; List the minimized mutant's
	// deployed list.
	Domain string
	List   []*certmodel.Certificate
}

// Result is a completed run.
type Result struct {
	Cfg Config
	// Pop is the seed population context (hierarchies, AIA repository,
	// vendor stores) the run graded against.
	Pop *population.Population
	// Corpus holds every admitted genome in admission order; its encodings
	// appear in the manifest.
	Corpus []Genome
	// Divergences are the confirmed divergences in discovery order,
	// deduplicated by minimized digest.
	Divergences []*Divergence
	// Bins counts divergences per attributed class ("I-1".."I-4") plus
	// "novel".
	Bins map[string]int
	// Mutants is the total number of evaluations admitted at the sink
	// (seed corpus included).
	Mutants int
}

// fuzzer is the run's sink-side state; all mutation happens in rank order.
type fuzzer struct {
	cfg    Config
	pop    *population.Population
	bases  [][]*certmodel.Certificate
	names  []string
	oracle *Oracle // sink-side: minimization and attribution
	// oracles[w] is evaluate worker w's oracle, built in the first
	// generation and kept, with its rebuild memo, for the campaign.
	oracles []*Oracle
	vcache  *verdictcache.Cache[Vector]
	warm    *rootstore.Store

	corpus []Genome
	// lists[i] is corpus[i] applied to its base: a child bred from it
	// starts from this list instead of replaying its mutations.
	lists [][]*certmodel.Certificate
	// seenVecs holds every admitted verdict vector.
	seenVecs    map[Vector]bool
	seenDigests map[string]bool
	divergences []*Divergence
	bins        map[string]int
	mutants     int

	cMutants, cDivergent, cNovel *obs.Counter
}

// Run executes the fuzzing campaign.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	pop := population.Generate(population.Config{
		Size: cfg.SeedDomains, Seed: cfg.Seed, Workers: cfg.Workers,
	})

	warm := difftest.DefaultWarmCache(pop)
	var vcache *verdictcache.Cache[Vector]
	if cfg.Dedup {
		vcache = verdictcache.New[Vector]("divfuzz.vcache", cfg.Metrics)
	}

	f := &fuzzer{
		cfg:         cfg,
		pop:         pop,
		warm:        warm,
		oracle:      NewOracle(pop, warm, vcache, cfg.Metrics),
		oracles:     make([]*Oracle, parallel.Workers(cfg.Workers)),
		vcache:      vcache,
		seenVecs:    make(map[Vector]bool),
		seenDigests: make(map[string]bool),
		bins:        make(map[string]int),
		cMutants:    cfg.Metrics.Counter("divfuzz.mutants"),
		cDivergent:  cfg.Metrics.Counter("divfuzz.divergent"),
		cNovel:      cfg.Metrics.Counter("divfuzz.novel"),
	}
	// The sink-side oracle builds for generation zero, minimization and
	// attribution; publish its builders' last partial metric batches and its
	// memo's tallies when Run returns.
	defer f.oracle.FlushMetrics()
	for _, d := range pop.Domains {
		f.bases = append(f.bases, d.List)
		f.names = append(f.names, d.Name)
	}

	// Generation zero: the seed corpus itself. Defective domains diverge
	// here, rediscovering the known classes before any mutation runs. It is
	// graded here, not on the engine, which would count the seeds in
	// divfuzz.mutants. began is Run's first read of its registry's clock:
	// perfbench's fuzz setup_s ends there.
	reg := f.cfg.Metrics
	began := reg.Time()
	for i, list := range f.bases {
		f.admit(Genome{Base: i}, list, f.oracle.Evaluate(list))
	}
	reg.Histogram("divfuzz.seed.latency", obs.LatencyBuckets).ObserveDuration(reg.Time().Sub(began))

	for gen := 1; gen <= cfg.Generations; gen++ {
		if err := f.generation(ctx, gen); err != nil {
			return nil, err
		}
	}
	return &Result{
		Cfg: cfg, Pop: pop,
		Corpus:      f.corpus,
		Divergences: f.divergences,
		Bins:        f.bins,
		Mutants:     f.mutants,
	}, nil
}

// generation breeds and evaluates one round of mutants. Parents come from a
// corpus snapshot frozen here, mutation draws are pure in (Seed, gen, rank),
// and admission happens at the sink in rank order — the three properties
// that make the run worker-invariant. The parents' lists are frozen with
// their genomes, so workers read them while the sink appends to the corpus;
// a child copies its parent's list before mutating it. A worker's oracle
// is built when the worker first starts, in generation one, so Run's
// set-up does not include it, and flushes its tallies each time the worker
// retires at a generation's end.
func (f *fuzzer) generation(ctx context.Context, gen int) error {
	snapshot := append([]Genome(nil), f.corpus...)
	lists := append([][]*certmodel.Certificate(nil), f.lists...)

	type evaluated struct {
		g    Genome
		list []*certmodel.Certificate
		vec  Vector
	}
	opts := pipeline.Options{Name: "divfuzz", Metrics: f.cfg.Metrics}
	src := pipeline.From(ctx, opts, "breed", 0, func(rank int) (int, bool, error) {
		return rank, rank < f.cfg.PerGen, nil
	})
	ev := pipeline.Through(src, pipeline.Stage[int, evaluated]{
		Name:    "evaluate",
		Workers: len(f.oracles),
		OnWorker: func(worker int) func() {
			if f.oracles[worker] == nil {
				f.oracles[worker] = NewOracle(f.pop, f.warm, f.vcache, f.cfg.Metrics)
			}
			return f.oracles[worker].FlushMetrics
		},
		Fn: func(_ context.Context, worker, _ int, rank int) (evaluated, error) {
			o := f.oracles[worker]
			g, parent, dropped := breed(snapshot, f.cfg, gen, rank)
			var list []*certmodel.Certificate
			if dropped {
				list = apply(f.pop, f.bases[g.Base], g, &o.memo)
			} else {
				list = applyNext(f.pop, lists[parent], g.Muts[len(g.Muts)-1], &o.memo)
			}
			vec := o.Evaluate(list)
			f.cMutants.Inc()
			return evaluated{g: g, list: list, vec: vec}, nil
		},
	})
	return ev.Drain(func(_ int, e evaluated) error {
		f.admit(e.g, e.list, e.vec)
		return nil
	})
}

// breed derives one child genome from the frozen corpus snapshot — a pure
// function of (cfg.Seed, gen, rank) and the snapshot. It also returns the
// parent's snapshot index and whether a mutation was dropped to make room:
// only an undropped child extends its parent's genome, and so its list.
func breed(snapshot []Genome, cfg Config, gen, rank int) (g Genome, parent int, dropped bool) {
	r := newRNG(cfg.Seed, gen, rank)
	parent = r.intn(len(snapshot))
	g = snapshot[parent].Clone()
	if len(g.Muts) >= cfg.MaxMuts {
		i := r.intn(len(g.Muts))
		g.Muts = append(g.Muts[:i], g.Muts[i+1:]...)
		dropped = true
	}
	g.Muts = append(g.Muts, Mut{
		Op:   Op(r.intn(int(opCount))),
		A:    r.intn(1 << 16),
		Salt: r.next(),
	})
	return g, parent, dropped
}

// admit is the sink: coverage bookkeeping, minimization, and attribution,
// strictly in rank order. list is g applied to its base, kept with an
// admitted genome for the children bred from it.
func (f *fuzzer) admit(g Genome, list []*certmodel.Certificate, vec Vector) {
	f.mutants++
	if f.seenVecs[vec] {
		return
	}
	f.seenVecs[vec] = true
	f.corpus = append(f.corpus, g)
	f.lists = append(f.lists, list)
	if !vec.Divergent() {
		return
	}
	min := Minimize(f.pop, f.bases[g.Base], g, f.oracle)
	digest := min.Digest()
	if f.seenDigests[digest] {
		return
	}
	f.seenDigests[digest] = true
	f.cDivergent.Inc()

	d := &Divergence{
		Found:     g,
		Minimized: min,
		Digest:    digest,
		Signature: vec.Signature(),
		Domain:    f.names[g.Base],
		List:      apply(f.pop, f.bases[g.Base], min, &f.oracle.memo),
	}
	d.Causes = f.attribute(d.Domain, d.List)
	d.Novel = len(d.Causes) == 0
	if d.Novel {
		f.bins["novel"]++
		f.cNovel.Inc()
	}
	for _, c := range d.Causes {
		f.bins[c]++
	}
	f.cfg.Metrics.Counter("divfuzz.bin." + binMetric(d)).Inc()
	f.divergences = append(f.divergences, d)
}

// binMetric renders a divergence's primary bin for the metric name.
func binMetric(d *Divergence) string {
	if d.Novel {
		return "novel"
	}
	return d.Causes[0]
}

// attribute grades the minimized list with full outcomes and classifies the
// disagreement via the harness's cause attribution; only the short I-class
// codes are kept ("other" contributes nothing).
func (f *fuzzer) attribute(domain string, list []*certmodel.Certificate) []string {
	rec := &difftest.ChainRecord{
		Domain:   &population.Domain{Name: domain, List: list},
		Report:   f.oracle.g.Analyze(list, domain),
		Verdicts: f.oracle.Outcomes(list),
	}
	var out []string
	for _, c := range difftest.AttributeCauses(rec) {
		code := strings.Fields(c.String())[0]
		if strings.HasPrefix(code, "I-") {
			out = append(out, code)
		}
	}
	return out
}

// Scenarios serializes the run's novel divergences as injectable scenarios:
// the minimized list, the trust anchors its paths can reach, and the AIA
// entries those certificates reference — everything internal/population
// needs to replay the topology in a generated population or a study run.
func (r *Result) Scenarios() []population.Scenario {
	var out []population.Scenario
	for _, d := range r.Divergences {
		if !d.Novel {
			continue
		}
		s := population.Scenario{
			Name:      "novel-" + d.Digest[:12],
			Signature: d.Signature,
			Causes:    d.Causes,
			Domain:    d.Domain,
		}
		for _, c := range d.List {
			s.Certs = append(s.Certs, population.CertSpecOf(c))
		}
		closure, roots := r.ancestorClosure(d.List)
		for _, root := range roots {
			s.Roots = append(s.Roots, population.CertSpecOf(root))
		}
		for _, c := range closure {
			for _, uri := range c.AIAIssuerURLs {
				if _, ok := s.AIA[uri]; ok {
					continue
				}
				target, err := r.Pop.Repo.Fetch(uri)
				if err != nil {
					continue // dead or wrong endpoints don't travel
				}
				if s.AIA == nil {
					s.AIA = make(map[string]population.CertSpec)
				}
				s.AIA[uri] = population.CertSpecOf(target)
			}
		}
		out = append(out, s)
	}
	return out
}

// ancestorClosure walks issuer links upward from the list through the
// population's CA material, returning every certificate visited and the
// self-signed roots reached, both in deterministic order.
func (r *Result) ancestorClosure(list []*certmodel.Certificate) (closure, roots []*certmodel.Certificate) {
	byKey := make(map[string][]*certmodel.Certificate)
	add := func(c *certmodel.Certificate) {
		k := string(c.PublicKeyID)
		byKey[k] = append(byKey[k], c)
	}
	for _, iss := range r.Pop.Issuers {
		add(iss.Root)
		add(iss.CrossRoot)
		add(iss.RootCrossSigned)
		add(iss.CrossSigned)
		for _, inter := range iss.Intermediates {
			add(inter)
		}
	}
	seen := make(map[[32]byte]bool)
	var walk func(c *certmodel.Certificate)
	walk = func(c *certmodel.Certificate) {
		fp := c.Fingerprint()
		if seen[fp] {
			return
		}
		seen[fp] = true
		closure = append(closure, c)
		if c.SelfSigned() {
			roots = append(roots, c)
			return
		}
		for _, parent := range byKey[string(c.SignedByKeyID)] {
			walk(parent)
		}
	}
	for _, c := range list {
		walk(c)
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i].Fingerprint(), roots[j].Fingerprint()
		return bytes.Compare(a[:], b[:]) < 0
	})
	return closure, roots
}
