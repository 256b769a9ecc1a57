package chainchaos_test

// One benchmark per paper table/figure (see DESIGN.md's experiment index)
// plus ablation benchmarks for the design choices the paper's findings hinge
// on. Kernels are benchmarked per chain; matrix-level experiments per full
// run.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/bettertls"
	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/chainfix"
	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/difftest"
	"chainchaos/internal/divfuzz"
	"chainchaos/internal/obs"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/study"
	"chainchaos/internal/tlsscan"
	"chainchaos/internal/tlsserve"
	"chainchaos/internal/topo"
)

const benchPopSize = 20000

var (
	benchOnce   sync.Once
	benchPop    *population.Population
	benchGraphs []*topo.Graph
	benchBad    []*population.Domain // non-compliant (by ground truth)
)

func benchSetup(b *testing.B) (*population.Population, []*topo.Graph) {
	b.Helper()
	benchOnce.Do(func() {
		benchPop = population.Generate(population.Config{Size: benchPopSize, Seed: 1})
		benchGraphs = make([]*topo.Graph, len(benchPop.Domains))
		for i, d := range benchPop.Domains {
			benchGraphs[i] = topo.Build(d.List)
			if d.Truth.NonCompliant() {
				benchBad = append(benchBad, d)
			}
		}
	})
	return benchPop, benchGraphs
}

// --- Workload generation ---

func BenchmarkPopulationGenerate1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		population.Generate(population.Config{Size: 1000, Seed: int64(i)})
	}
}

// --- Table 3: leaf placement kernel ---

func BenchmarkTable3LeafPlacement(b *testing.B) {
	pop, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pop.Domains[i%len(pop.Domains)]
		compliance.ClassifyLeafPlacement(d.List, d.Name)
	}
}

// --- Table 5: topology build + order analysis kernel ---

func BenchmarkTable5IssuanceOrder(b *testing.B) {
	pop, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pop.Domains[i%len(pop.Domains)]
		compliance.AnalyzeOrder(topo.Build(d.List))
	}
}

// --- Table 7: completeness kernel (union store + AIA) ---

func BenchmarkTable7Completeness(b *testing.B) {
	pop, graphs := benchSetup(b)
	cfg := compliance.CompletenessConfig{Roots: pop.Roots(), Fetcher: pop.Repo}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compliance.AnalyzeCompleteness(graphs[i%len(graphs)], cfg)
	}
}

// --- Table 8: completeness kernel, single store, no AIA ---

func BenchmarkTable8RootStoreAIA(b *testing.B) {
	pop, graphs := benchSetup(b)
	cfg := compliance.CompletenessConfig{Roots: pop.Vendors.Store(rootstore.Mozilla)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compliance.AnalyzeCompleteness(graphs[i%len(graphs)], cfg)
	}
}

// --- Table 9: full client capability matrix ---

func BenchmarkTable9ClientCapabilities(b *testing.B) {
	runner, err := clients.NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 10/11: grouping non-compliant chains by server and CA ---

func BenchmarkTable10ServerBreakdown(b *testing.B) {
	pop, graphs := benchSetup(b)
	an := &compliance.Analyzer{Completeness: compliance.CompletenessConfig{Roots: pop.Roots(), Fetcher: pop.Repo}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byServer := map[string]int{}
		for j, d := range pop.Domains {
			rep := an.Analyze(d.Name, graphs[j])
			if !rep.Compliant() {
				byServer[d.Server]++
			}
		}
	}
}

func BenchmarkTable11CABreakdown(b *testing.B) {
	pop, graphs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byCA := map[string]int{}
		for j, d := range pop.Domains {
			if compliance.AnalyzeOrder(graphs[j]).NonCompliant() {
				byCA[d.CA]++
			}
		}
	}
}

// --- Figure 2: topology graph construction ---

func BenchmarkFigure2TopologyBuild(b *testing.B) {
	pop, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Build(pop.Domains[i%len(pop.Domains)].List)
	}
}

// BenchmarkTopoLongList bounds the quadratic cost of folding and wiring a
// long untrusted list (chainserved grades bodies of up to 1 MiB): Build,
// then IrrelevantNodes, over a 1,024-deep chain, a leaf among 1,024
// unrelated intermediates, and the same with 1,024 intermediates whose
// encodings all have one length and differ only in their trailing key.
func BenchmarkTopoLongList(b *testing.B) {
	deep1024, _ := deepChain(1024)
	distinct1024, _ := distinctList(1024)
	cases := []struct {
		name string
		list []*certmodel.Certificate
	}{
		{"deep1024", deep1024},
		{"distinct1024", distinct1024},
		{"sameLength1024", sameLengthList(1024)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topo.Build(c.list).IrrelevantNodes()
			}
		})
	}
}

// --- Figures 3/4: the case-study chains ---

func benchCaseChains(b *testing.B) ([]*certmodel.Certificate, *rootstore.Store) {
	b.Helper()
	root, err := certgen.NewRoot("Bench Case Root")
	if err != nil {
		b.Fatal(err)
	}
	mid, _ := root.NewIntermediate("Bench Mid CA")
	issuing, _ := mid.NewIntermediate("Bench Issuing CA")
	leaf, _ := issuing.NewLeaf("bench.case.example")
	list := make([]*certmodel.Certificate, 0, 17)
	list = append(list, leaf.Cert)
	for len(list) < 14 {
		stale, _ := issuing.NewLeaf("bench.case.example",
			certgen.WithValidity(certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
		list = append(list, stale.Cert)
	}
	list = append(list, mid.Cert, issuing.Cert, root.Cert)
	return list, rootstore.NewWith("bench", root.Cert)
}

func BenchmarkFigure3LongChain(b *testing.B) {
	list, roots := benchCaseChains(b)
	builder := &pathbuild.Builder{Policy: clients.Chrome().Policy, Roots: roots, Now: certgen.Reference}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Build(list, "bench.case.example")
	}
}

// BenchmarkPathBuildLongList measures a single reused builder over the two
// pathological list shapes the paper's resource-consumption findings rest
// on — the ns3.link-style 25-cert duplicate list and the Figure 3 17-cert
// stale-sibling list — and over three adversarial shapes that bound the
// searcher's two modes:
//   - deep32: a leaf over a 31-certificate chain, the longest list the
//     searcher scans, and the scan's worst case;
//   - deep1024: the same shape, 1,024 certificates long, which is indexed;
//   - distinct1024: a leaf, 1,024 unrelated intermediates, then its real
//     issuer and root.
func BenchmarkPathBuildLongList(b *testing.B) {
	root, err := certgen.NewRoot("Bench LL Root")
	if err != nil {
		b.Fatal(err)
	}
	inter, _ := root.NewIntermediate("Bench LL CA")
	leaf, _ := inter.NewLeaf("bench.ll.example")
	dup25 := []*certmodel.Certificate{leaf.Cert}
	for i := 0; i < 12; i++ {
		dup25 = append(dup25, inter.Cert, root.Cert)
	}
	dupRoots := rootstore.NewWith("bench-ll", root.Cert)
	dupRoots.Seal()

	fig3, fig3Roots := benchCaseChains(b)
	fig3Roots.Seal()

	deep32, deep32Roots := deepChain(32)
	deep1024, deep1024Roots := deepChain(1024)
	distinct1024, distinctRoots := distinctList(1024)

	cases := []struct {
		name   string
		list   []*certmodel.Certificate
		roots  *rootstore.Store
		domain string
	}{
		{"dup25", dup25, dupRoots, "bench.ll.example"},
		{"fig3x17", fig3, fig3Roots, "bench.case.example"},
		{"deep32", deep32, deep32Roots, "deep.bench.example"},
		{"deep1024", deep1024, deep1024Roots, "deep.bench.example"},
		{"distinct1024", distinct1024, distinctRoots, "distinct.bench.example"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: clients.Chrome().Policy, Roots: c.roots, Now: certgen.Reference}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := builder.Build(c.list, c.domain); !out.OK() {
					b.Fatal("long-list build should succeed")
				}
			}
		})
	}
}

// deepChain returns a compliant list of n synthetic certificates — a leaf,
// n-2 intermediates each issued by the next, and the root — with a store
// trusting the root.
func deepChain(n int) ([]*certmodel.Certificate, *rootstore.Store) {
	base := certgen.Reference.AddDate(-1, 0, 0)
	root := certmodel.SyntheticRoot("Bench Deep Root", base)
	chain := []*certmodel.Certificate{root}
	for i := 1; i < n-1; i++ {
		chain = append(chain, certmodel.SyntheticIntermediate(fmt.Sprintf("Bench Deep CA %d", i), chain[i-1], base))
	}
	leaf := certmodel.SyntheticLeaf("deep.bench.example", "1", chain[len(chain)-1], base, base.AddDate(2, 0, 0))
	list := []*certmodel.Certificate{leaf}
	for i := len(chain) - 1; i >= 0; i-- {
		list = append(list, chain[i])
	}
	roots := rootstore.NewWith("bench-deep", root)
	roots.Seal()
	return list, roots
}

// distinctList returns a leaf, n intermediates unrelated to it, then the
// leaf's issuer and root, with a store trusting the root.
func distinctList(n int) ([]*certmodel.Certificate, *rootstore.Store) {
	base := certgen.Reference.AddDate(-1, 0, 0)
	root := certmodel.SyntheticRoot("Bench Distinct Root", base)
	issuing := certmodel.SyntheticIntermediate("Bench Distinct CA", root, base)
	stranger := certmodel.SyntheticRoot("Bench Stranger Root", base)
	list := []*certmodel.Certificate{certmodel.SyntheticLeaf("distinct.bench.example", "1", issuing, base, base.AddDate(2, 0, 0))}
	for i := 0; i < n; i++ {
		list = append(list, certmodel.SyntheticIntermediate(fmt.Sprintf("Bench Stranger CA %d", i), stranger, base))
	}
	list = append(list, issuing, root)
	roots := rootstore.NewWith("bench-distinct", root)
	roots.Seal()
	return list, roots
}

// sameLengthList is distinctList with n intermediates that share subject,
// issuer, serial and signer and carry no key identifiers, so their
// encodings have one length and differ only in the trailing public key.
func sameLengthList(n int) []*certmodel.Certificate {
	base := certgen.Reference.AddDate(-1, 0, 0)
	root := certmodel.SyntheticRoot("Bench Same-Length Root", base)
	issuing := certmodel.SyntheticIntermediate("Bench Same-Length Issuing CA", root, base)
	stranger := certmodel.SyntheticRoot("Bench Same-Length Stranger", base)
	list := []*certmodel.Certificate{certmodel.SyntheticLeaf("same.bench.example", "1", issuing, base, base.AddDate(2, 0, 0))}
	for i := 0; i < n; i++ {
		list = append(list, certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: certmodel.Name{CommonName: "Bench Same-Length CA"}, Issuer: stranger.Subject,
			Serial: "same", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: certmodel.NewSyntheticKey(fmt.Sprintf("bench same-length %d", i)), SignedBy: certmodel.KeyOf(stranger),
			OmitSKID: true, OmitAKID: true, IsCA: true, BasicConstraintsValid: true,
		}))
	}
	return append(list, issuing, root)
}

func BenchmarkFigure4Backtracking(b *testing.B) {
	trusted, err := certgen.NewRoot("Bench F4 Trusted")
	if err != nil {
		b.Fatal(err)
	}
	topSelf, _ := certgen.NewRoot("Bench F4 Gov CA")
	cross, _ := trusted.CrossSign(topSelf)
	issuing, _ := topSelf.NewIntermediate("Bench F4 Issuing")
	leaf, _ := issuing.NewLeaf("bench.f4.example")
	list := []*certmodel.Certificate{leaf.Cert, topSelf.Cert, issuing.Cert, cross, trusted.Cert}
	roots := rootstore.NewWith("bench", trusted.Cert)
	builder := &pathbuild.Builder{Policy: clients.CryptoAPI().Policy, Roots: roots, Now: certgen.Reference}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := builder.Build(list, "bench.f4.example")
		if !out.OK() {
			b.Fatal("backtracking build should succeed")
		}
	}
}

// --- §5.2 differential testing ---

func BenchmarkDifferentialPerChain(b *testing.B) {
	pop, _ := benchSetup(b)
	if len(benchBad) == 0 {
		b.Skip("no non-compliant chains in bench population")
	}
	profiles := clients.All()
	builders := make([]*pathbuild.Builder, len(profiles))
	for i, p := range profiles {
		builders[i] = &pathbuild.Builder{Policy: p.Policy, Roots: pop.Roots(), Fetcher: pop.Repo, Now: pop.Cfg.Base}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := benchBad[i%len(benchBad)]
		for _, bd := range builders {
			bd.Build(d.List, "")
		}
	}
}

func BenchmarkDifferentialHarness2k(b *testing.B) {
	pop := population.Generate(population.Config{Size: 2000, Seed: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&difftest.Harness{}).Run(pop)
	}
}

// BenchmarkDifferentialHarnessDedup2k runs the harness over a chain-reuse
// population with the verdict cache on — the number to diff against
// BenchmarkDifferentialHarness2k for the memoization win at realistic skew.
func BenchmarkDifferentialHarnessDedup2k(b *testing.B) {
	pop := population.Generate(population.Config{Size: 2000, Seed: 5, ChainReuse: 0.9, ChainPool: 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&difftest.Harness{Dedup: true}).Run(pop)
	}
}

// BenchmarkDifferentialHarness2kInstrumented is the same run with a live
// metrics registry wired through the harness and every builder — the number
// to diff against BenchmarkDifferentialHarness2k when eyeballing
// instrumentation cost.
func BenchmarkDifferentialHarness2kInstrumented(b *testing.B) {
	pop := population.Generate(population.Config{Size: 2000, Seed: 5})
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&difftest.Harness{Metrics: reg}).Run(pop)
	}
}

// obsOverhead caches the bare-vs-instrumented comparison so the benchmark
// framework's N-ramping does not re-measure on every invocation.
var (
	obsOverheadOnce sync.Once
	obsOverheadPct  float64
)

// BenchmarkObsOverheadGuard enforces the observability budget: a fully
// instrumented difftest harness must cost less than 3% over the bare one
// (DESIGN.md "Observability"). Wall-clock noise on shared hardware dwarfs
// a sub-3% signal, so the estimator is layered: min-of-trials inside each
// repetition discards slow outliers, the median across repetitions discards
// unlucky minima, and a breach must then reproduce on three independent
// estimates before the guard fails — a real regression reproduces every
// time, a noise spike does not. Bench-gated so plain `go test` never runs it.
func BenchmarkObsOverheadGuard(b *testing.B) {
	obsOverheadOnce.Do(func() {
		pop := population.Generate(population.Config{Size: 2000, Seed: 5})
		// Single-worker runs: a serial run is the honest measurement —
		// every instrumentation event is on the critical path instead of
		// hidden behind idle cores.
		one := func(reg *obs.Registry) time.Duration {
			start := time.Now()
			(&difftest.Harness{Workers: 1, Metrics: reg}).Run(pop)
			return time.Since(start)
		}
		reg := obs.NewRegistry()
		// Warm both paths (page cache, lazily-built client sets).
		one(nil)
		one(reg)
		estimate := func() float64 {
			const reps, trials = 5, 8
			ratios := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				var bare, instr time.Duration
				for i := 0; i < trials; i++ {
					// Alternate order inside each pair so load drift hits
					// both sides symmetrically.
					var wb, wi time.Duration
					if i%2 == 0 {
						wb, wi = one(nil), one(reg)
					} else {
						wi, wb = one(reg), one(nil)
					}
					if bare == 0 || wb < bare {
						bare = wb
					}
					if instr == 0 || wi < instr {
						instr = wi
					}
				}
				ratios = append(ratios, float64(instr)/float64(bare))
			}
			sort.Float64s(ratios)
			return (ratios[reps/2] - 1) * 100
		}
		obsOverheadPct = estimate()
		for retry := 0; retry < 2 && obsOverheadPct >= 3.0; retry++ {
			if e := estimate(); e < obsOverheadPct {
				obsOverheadPct = e
			}
		}
	})
	b.ReportMetric(obsOverheadPct, "overhead-%")
	if obsOverheadPct >= 3.0 {
		b.Fatalf("instrumentation overhead %.2f%% breaches the 3%% budget", obsOverheadPct)
	}
	for i := 0; i < b.N; i++ {
		// The guard's work is the cached comparison above.
	}
}

// Sharded-engine variants of the 2k harness run: fixed worker counts pin
// down the scheduling overhead; Max measures the configured default.
func benchDifftestParallel(b *testing.B, workers int) {
	b.Helper()
	pop := population.Generate(population.Config{Size: 2000, Seed: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&difftest.Harness{Workers: workers}).Run(pop)
	}
}

func BenchmarkDifftestParallel1(b *testing.B)   { benchDifftestParallel(b, 1) }
func BenchmarkDifftestParallel4(b *testing.B)   { benchDifftestParallel(b, 4) }
func BenchmarkDifftestParallelMax(b *testing.B) { benchDifftestParallel(b, runtime.GOMAXPROCS(0)) }

// BenchmarkDifftestPrecomputedAnalysis measures the RunAnalyzed path: grading
// is done once outside the timer, so the loop isolates pure differential
// testing over precomputed reports.
func BenchmarkDifftestPrecomputedAnalysis(b *testing.B) {
	pop := population.Generate(population.Config{Size: 2000, Seed: 5})
	analyzer := &compliance.Analyzer{Completeness: compliance.CompletenessConfig{Roots: pop.Roots(), Fetcher: pop.Repo}}
	reports := make([]compliance.Report, len(pop.Domains))
	for i, d := range pop.Domains {
		reports[i] = analyzer.Analyze(d.Name, topo.Build(d.List))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&difftest.Harness{}).RunAnalyzed(pop, reports)
	}
}

// --- Streaming pipeline engine vs batch orchestration ---

// BenchmarkPipelineHop is the engine's own cost per item: b.N ranks from a
// default-depth source through one identity stage of 2 workers into a sink
// that does nothing.
func BenchmarkPipelineHop(b *testing.B) {
	b.ReportAllocs()
	src := pipeline.From(context.Background(), pipeline.Options{}, "ranks", 0, func(rank int) (int, bool, error) {
		return rank, rank < b.N, nil
	})
	hop := pipeline.Through(src, pipeline.Stage[int, int]{
		Name: "hop", Workers: 2,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v, nil },
	})
	if err := hop.Drain(func(int, int) error { return nil }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineDifftest compares the streaming differential evaluation —
// domains generated, analyzed, and graded in flight through the staged
// pipeline, peak memory bounded by the worker window — against the batch
// path that materializes the population first. The two produce bit-identical
// summaries; B/op is the memory story.
func BenchmarkPipelineDifftest(b *testing.B) {
	cfg := population.Config{Size: 2000, Seed: 5}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&difftest.Harness{}).Run(population.Generate(cfg))
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := population.NewSource(cfg)
			if _, err := (&difftest.Harness{}).RunStream(context.Background(), src, pipeline.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineStudy is the study end to end: sites deployed, scanned,
// and graded through the bounded deploy→scan→grade pipeline into a JSONL
// sink.
func BenchmarkPipelineStudy(b *testing.B) {
	cfg := study.Config{Sites: 200, Seed: 4, Vantages: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.RunStream(context.Background(), cfg, study.Stream{Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Path building per client model on a reversed chain ---

func BenchmarkPathBuildPerClient(b *testing.B) {
	root, err := certgen.NewRoot("Bench PB Root")
	if err != nil {
		b.Fatal(err)
	}
	ca2, _ := root.NewIntermediate("Bench PB CA2")
	ca1, _ := ca2.NewIntermediate("Bench PB CA1")
	leaf, _ := ca1.NewLeaf("bench.pb.example")
	reversed := []*certmodel.Certificate{leaf.Cert, root.Cert, ca2.Cert, ca1.Cert}
	roots := rootstore.NewWith("bench", root.Cert)
	for _, p := range clients.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: p.Policy, Roots: roots, Now: certgen.Reference}
			for i := 0; i < b.N; i++ {
				builder.Build(reversed, "bench.pb.example")
			}
		})
	}
}

// --- AIA recursive chase ---

func BenchmarkAIAChase(b *testing.B) {
	pop, _ := benchSetup(b)
	var tail *certmodel.Certificate
	for _, d := range pop.Domains {
		if d.Truth.Incomplete && !d.Truth.AIAMissing && !d.Truth.AIADead && !d.Truth.AIAWrong {
			tail = d.List[len(d.List)-1]
			break
		}
	}
	if tail == nil {
		b.Skip("no AIA-recoverable incomplete chain in population")
	}
	chaser := &aia.Chaser{Fetcher: pop.Repo}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !chaser.Chase(tail).Completed() {
			b.Fatal("chase should reach the root")
		}
	}
}

// --- Minting a real leaf (the study deployer's per-chain cost) ---

// BenchmarkNewLeaf mints one real leaf from a fixed CA, as the study's
// deployer does for each new chain: a P-256 key, the DER encoding, an ECDSA
// signature and the parse into the certificate model.
func BenchmarkNewLeaf(b *testing.B) {
	root, err := certgen.NewRoot("Bench Leaf Root")
	if err != nil {
		b.Fatal(err)
	}
	ca, err := root.NewIntermediate("Bench Leaf CA", certgen.WithAIA("http://repo.example/ca.der"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.NewLeaf("bench-leaf.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- TLS loopback scan (the ZGrab2-equivalent data path) ---

func BenchmarkTLSScanLoopback(b *testing.B) {
	root, err := certgen.NewRoot("Bench Scan Root")
	if err != nil {
		b.Fatal(err)
	}
	inter, _ := root.NewIntermediate("Bench Scan CA")
	leaf, _ := inter.NewLeaf("bench.scan.example")
	srv, err := tlsserve.Start(tlsserve.Config{
		List:   []*certmodel.Certificate{leaf.Cert, inter.Cert, root.Cert},
		Key:    leaf.Key,
		Domain: "bench.scan.example",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	scanner := &tlsscan.Scanner{Timeout: 5 * time.Second}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := scanner.Scan(ctx, tlsscan.Target{Addr: srv.Addr(), Domain: "bench.scan.example"})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// --- Ablations (DESIGN.md "design choices worth ablating") ---

// Backtracking on vs off over the Figure 4 multi-path chain: cost and
// success trade-off.
func BenchmarkAblationBacktracking(b *testing.B) {
	trusted, err := certgen.NewRoot("Abl BT Trusted")
	if err != nil {
		b.Fatal(err)
	}
	topSelf, _ := certgen.NewRoot("Abl BT Gov")
	cross, _ := trusted.CrossSign(topSelf)
	issuing, _ := topSelf.NewIntermediate("Abl BT Issuing")
	leaf, _ := issuing.NewLeaf("abl.bt.example")
	list := []*certmodel.Certificate{leaf.Cert, topSelf.Cert, issuing.Cert, cross, trusted.Cert}
	roots := rootstore.NewWith("abl", trusted.Cert)
	for _, bt := range []bool{true, false} {
		name := "off"
		if bt {
			name = "on"
		}
		policy := clients.CryptoAPI().Policy
		policy.Backtrack = bt
		b.Run(name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: policy, Roots: roots, Now: certgen.Reference}
			ok := 0
			for i := 0; i < b.N; i++ {
				if builder.Build(list, "abl.bt.example").OK() {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "success-rate")
		})
	}
}

// Duplicate elimination on vs off over a duplicate-heavy list (MbedTLS keeps
// duplicates and pays for rescanning them).
func BenchmarkAblationDuplicateElimination(b *testing.B) {
	root, err := certgen.NewRoot("Abl Dup Root")
	if err != nil {
		b.Fatal(err)
	}
	inter, _ := root.NewIntermediate("Abl Dup CA")
	leaf, _ := inter.NewLeaf("abl.dup.example")
	list := []*certmodel.Certificate{leaf.Cert}
	for i := 0; i < 12; i++ { // the ns3.link shape: the same pair repeated
		list = append(list, inter.Cert, root.Cert)
	}
	roots := rootstore.NewWith("abl", root.Cert)
	for _, elim := range []bool{true, false} {
		name := "off"
		if elim {
			name = "on"
		}
		policy := pathbuild.DefaultPolicy()
		policy.EliminateDuplicates = elim
		policy.AIA = false
		b.Run(name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: policy, Roots: roots, Now: certgen.Reference}
			considered := 0
			for i := 0; i < b.N; i++ {
				out := builder.Build(list, "abl.dup.example")
				considered += out.CandidatesConsidered
			}
			b.ReportMetric(float64(considered)/float64(b.N), "candidates/op")
		})
	}
}

// KID priority (recommended match>absent>mismatch) vs none over the Table 2
// KID scenario.
func BenchmarkAblationKIDPriority(b *testing.B) {
	runner, err := clients.NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	sc := runner.Set.KID
	for _, mode := range []struct {
		name string
		pref pathbuild.KIDPolicy
	}{{"kp2", pathbuild.KIDMatchFirst}, {"none", pathbuild.KIDNone}} {
		policy := pathbuild.DefaultPolicy()
		policy.KIDPref = mode.pref
		policy.AIA = false
		b.Run(mode.name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: policy, Roots: sc.Roots, Now: certgen.Reference}
			for i := 0; i < b.N; i++ {
				builder.Build(sc.List, sc.Domain)
			}
		})
	}
}

// Issuance-rule variants: the paper's flexible rule vs the strict
// all-criteria rule.
func BenchmarkAblationIssuanceRule(b *testing.B) {
	pop, _ := benchSetup(b)
	d := pop.Domains[0]
	parent, child := d.List[len(d.List)-1], d.List[0]
	b.Run("flexible", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			certmodel.Issued(parent, child)
		}
	})
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			certmodel.IssuedStrict(parent, child)
		}
	})
}

// Synthetic vs real certificate creation: the population-scale trade-off.
func BenchmarkAblationCertBackend(b *testing.B) {
	base := time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)
	parent := certmodel.SyntheticRoot("Abl Backend Root", base)
	b.Run("synthetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			certmodel.SyntheticLeaf("abl.backend.example", "s", parent, base, base.AddDate(1, 0, 0))
		}
	})
	realRoot, err := certgen.NewRoot("Abl Backend Real Root")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := realRoot.NewLeaf("abl.backend.example"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GnuTLS-style input-list limit vs constructed-path limit on a padded list.
func BenchmarkAblationLengthSemantics(b *testing.B) {
	root, err := certgen.NewRoot("Abl Len Root")
	if err != nil {
		b.Fatal(err)
	}
	inter, _ := root.NewIntermediate("Abl Len CA")
	leaf, _ := inter.NewLeaf("abl.len.example")
	list := []*certmodel.Certificate{leaf.Cert, inter.Cert, root.Cert}
	for i := 0; i < 20; i++ {
		pad, _ := certgen.NewRoot("Abl Len Pad")
		list = append(list, pad.Cert)
	}
	roots := rootstore.NewWith("abl", root.Cert)
	for _, mode := range []struct {
		name   string
		policy pathbuild.Policy
	}{
		{"input-list-16", func() pathbuild.Policy { p := pathbuild.DefaultPolicy(); p.AIA = false; p.MaxInputList = 16; return p }()},
		{"path-16", func() pathbuild.Policy { p := pathbuild.DefaultPolicy(); p.AIA = false; p.MaxPathLen = 16; return p }()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			builder := &pathbuild.Builder{Policy: mode.policy, Roots: roots, Now: certgen.Reference}
			ok := 0
			for i := 0; i < b.N; i++ {
				if builder.Build(list, "abl.len.example").OK() {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "success-rate")
		})
	}
}

// --- Extensions beyond the paper ---

// BenchmarkDivfuzzCampaign runs the divergence-fuzzing campaign
// internal/divfuzz's TestManifestGolden pins (seed 103, 40 generations of
// 256 mutants, verdict cache on) at 2 workers: breeding, mutation through
// the workers' rebuild memos, 8-model grading and the sink's minimization.
// allocs/op and B/op are per campaign.
func BenchmarkDivfuzzCampaign(b *testing.B) {
	cfg := divfuzz.Config{Seed: 103, Generations: 40, Dedup: true, Workers: 2}
	b.ReportAllocs()
	mutants := 0
	for b.Loop() {
		res, err := divfuzz.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mutants += res.Mutants
	}
	b.ReportMetric(float64(mutants)/b.Elapsed().Seconds(), "mutants/s")
}

// BenchmarkChainFix measures the §6-recommendations repair engine over the
// population's non-compliant chains.
func BenchmarkChainFix(b *testing.B) {
	pop, _ := benchSetup(b)
	if len(benchBad) == 0 {
		b.Skip("no non-compliant chains")
	}
	fixer := &chainfix.Fixer{Roots: pop.Roots(), Fetcher: pop.Repo}
	b.ResetTimer()
	fixed := 0
	for i := 0; i < b.N; i++ {
		d := benchBad[i%len(benchBad)]
		if _, err := fixer.Fix(d.List, d.Name); err == nil {
			fixed++
		}
	}
	b.ReportMetric(float64(fixed)/float64(b.N), "fixed-rate")
}

// BenchmarkTable1BetterTLS runs the full BetterTLS-style validation
// correctness suite across all eight client models.
func BenchmarkTable1BetterTLS(b *testing.B) {
	suite, err := bettertls.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.RunAll()
	}
}

// BenchmarkAblationTraceOverhead measures the cost of recording the
// construction trace.
func BenchmarkAblationTraceOverhead(b *testing.B) {
	root, err := certgen.NewRoot("Abl Trace Root")
	if err != nil {
		b.Fatal(err)
	}
	ca2, _ := root.NewIntermediate("Abl Trace CA2")
	ca1, _ := ca2.NewIntermediate("Abl Trace CA1")
	leaf, _ := ca1.NewLeaf("abl.trace.example")
	list := []*certmodel.Certificate{leaf.Cert, root.Cert, ca2.Cert, ca1.Cert}
	roots := rootstore.NewWith("abl", root.Cert)
	pol := clients.Chrome().Policy
	b.Run("off", func(b *testing.B) {
		builder := &pathbuild.Builder{Policy: pol, Roots: roots, Now: certgen.Reference}
		for i := 0; i < b.N; i++ {
			builder.Build(list, "abl.trace.example")
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			builder := &pathbuild.Builder{Policy: pol, Roots: roots, Now: certgen.Reference, Trace: &pathbuild.Trace{}}
			builder.Build(list, "abl.trace.example")
		}
	})
}
