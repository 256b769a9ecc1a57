package divfuzz

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/difftest"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
	"chainchaos/internal/verdictcache"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// smallCfg is the shared test campaign: big enough to rediscover known
// classes and breed novel topologies, small enough for the race detector.
func smallCfg(workers int) Config {
	return Config{Seed: 1, Generations: 3, PerGen: 96, SeedDomains: 48, Workers: workers, Dedup: true}
}

// TestRunFindsKnownAndNovel: a fixed-seed campaign rediscovers at least one
// of the paper's I-1…I-4 divergence classes and bins at least one topology
// outside them — the acceptance shape the CI smoke asserts on the binary.
func TestRunFindsKnownAndNovel(t *testing.T) {
	res, err := Run(context.Background(), smallCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, class := range []string{"I-1", "I-2", "I-3", "I-4"} {
		known += res.Bins[class]
	}
	if known == 0 {
		t.Fatalf("no known I-class divergence rediscovered; bins: %v", res.Bins)
	}
	if res.Bins["novel"] == 0 {
		t.Fatalf("no novel divergence binned; bins: %v", res.Bins)
	}
	if res.Mutants != 48+3*96 {
		t.Fatalf("mutants = %d, want %d", res.Mutants, 48+3*96)
	}
	for _, d := range res.Divergences {
		if !d.Novel && len(d.Causes) == 0 {
			t.Fatalf("divergence %s neither novel nor attributed", d.Digest[:12])
		}
	}
}

// TestBuildCountersFlushed: every verdict-cache miss costs one build per
// client model, so the published pathbuild.builds must reach 8 × misses —
// which it does only if each evaluate worker's builders and the sink-side
// oracle flush their last partial metric batch when they retire.
func TestBuildCountersFlushed(t *testing.T) {
	cfg := smallCfg(2)
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	c := cfg.Metrics.Snapshot().Counters
	builds, misses := c["pathbuild.builds"], c["divfuzz.vcache.misses"]
	if misses == 0 {
		t.Fatal("campaign saw no verdict-cache misses")
	}
	if profiles := int64(len(clients.All())); builds < profiles*misses {
		t.Errorf("pathbuild.builds = %d, want >= %d (%d profiles x %d cache misses)", builds, profiles*misses, profiles, misses)
	}
}

// TestRebuildMemoCounted: at one worker every oracle rebuilds and looks up
// in a fixed order, so a campaign's published divfuzz.rebuilds and
// divfuzz.rebuild_hits repeat exactly from run to run, and most rebuilds
// are answered by the memo.
func TestRebuildMemoCounted(t *testing.T) {
	var got [2][2]int64
	for i := range got {
		cfg := smallCfg(1)
		cfg.Metrics = obs.NewRegistry()
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		c := cfg.Metrics.Snapshot().Counters
		got[i] = [2]int64{c["divfuzz.rebuilds"], c["divfuzz.rebuild_hits"]}
	}
	t.Logf("rebuilds %d, hits %d", got[0][0], got[0][1])
	if got[0] != got[1] {
		t.Fatalf("(rebuilds, hits) = %v, then %v", got[0], got[1])
	}
	if rebuilds, hits := got[0][0], got[0][1]; rebuilds == 0 || hits <= rebuilds {
		t.Errorf("rebuilds %d, hits %d: want both published and more hits than rebuilds", rebuilds, hits)
	}
}

// TestSeedGenerationTimedOnce: generation zero, graded outside the engine,
// is Run's one timing of its own — a single divfuzz.seed.latency
// observation — while every later generation is timed by the engine, one
// divfuzz.evaluate observation per mutant.
func TestSeedGenerationTimedOnce(t *testing.T) {
	cfg := smallCfg(2)
	cfg.Generations, cfg.PerGen = 2, 16
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Histograms["divfuzz.seed.latency"].Count; got != 1 {
		t.Errorf("divfuzz.seed.latency count = %d, want 1", got)
	}
	if got, want := snap.Histograms["divfuzz.evaluate.latency"].Count, int64(cfg.Generations*cfg.PerGen); got != want {
		t.Errorf("divfuzz.evaluate.latency count = %d, want %d", got, want)
	}
}

// TestManifestWorkerInvariance: the manifest bytes are identical for 1, 4,
// and 8 workers — the determinism contract that lets two hosts compare
// their campaigns' manifests byte for byte.
func TestManifestWorkerInvariance(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(context.Background(), smallCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Manifest().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: manifest differs from workers=1 run", workers)
		}
	}
}

// TestMinimizeIdempotent: minimize(minimize(g)) == minimize(g) for every
// divergence a campaign finds — the fixpoint property the canonical digest
// relies on.
func TestMinimizeIdempotent(t *testing.T) {
	res, err := Run(context.Background(), smallCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("campaign found no divergences to minimize")
	}
	warm := difftest.DefaultWarmCache(res.Pop)
	oracle := NewOracle(res.Pop, warm, nil, nil)
	for _, d := range res.Divergences {
		base := res.Pop.Domains[d.Minimized.Base].List
		again := Minimize(res.Pop, base, d.Minimized, oracle)
		if again.Encode() != d.Minimized.Encode() {
			t.Fatalf("minimize not idempotent for %s: %s -> %s",
				d.Digest[:12], d.Minimized.Encode(), again.Encode())
		}
		if again.Digest() != d.Digest {
			t.Fatalf("digest drifted on re-minimize for %s", d.Digest[:12])
		}
	}
}

// TestManifestGolden pins the manifest bytes of a 40-generation campaign at
// 1 and 8 workers. About a sixth of its breeds drop a mutation, so children
// built from their parent's list and children replayed from their base both
// reach the sink.
func TestManifestGolden(t *testing.T) {
	const want = "fddf92663b57ed99f079e2a73e695cf2788f000b6f9528e7981d09d6bd3d5a23"
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), Config{Seed: 103, Generations: 40, Dedup: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.Manifest().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: manifest sha256 %s, want %s", workers, got, want)
		}
	}
}

// TestCampaignAllocs is the fuzz path's allocation sentinel: the
// TestManifestGolden campaign at one worker, bounded in allocations per
// mutant from the process's malloc count, which repeats to ±0.01 between
// runs. It measured 33.85 allocations (3,820 B) per mutant before the
// rebuild memo, the campaign-long worker oracles and the byte-keyed seen
// set, and 21.7 (1,826 B) with them. Path builds that validate into
// builder scratch, with findings rendered only when read, took it to 14.2
// (1,079 B). Grading through the builders' scratch, which copies no
// outcome out, took it to 6.49 (796 B), and rebuilding a mutated
// certificate in one block with its key identifiers and lists to 6.09
// (796 B). A verdict vector that is a value, cached and keyed as one, took
// it to 5.53 (700 B); the bound fails with one allocation per mutant added
// back.
func TestCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	const bound = 6.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), Config{Seed: 103, Generations: 40, Dedup: true, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(res.Mutants)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Mutants)
	t.Logf("%d mutants: %.2f allocations, %.0f B per mutant", res.Mutants, allocs, bytes)
	if allocs > bound {
		t.Errorf("a mutant allocates %.2f times, bound %.0f", allocs, bound)
	}
}

// TestApplyIncremental: for every genome a short campaign admits, every
// operator, two positions and a few salts, the child built by applyNext from
// the parent's list and the child genome replayed from its base have the
// list digest of the memo-less Apply — without a rebuild memo, with a fresh
// one, and with one warmed by everything the test applied before. Repeating
// a memoized operator on the parent's list returns the identical
// certificates, and the parent's list is unchanged afterwards.
func TestApplyIncremental(t *testing.T) {
	res, err := Run(context.Background(), smallCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	warmed := &rebuildMemo{}
	for _, g := range res.Corpus {
		base := res.Pop.Domains[g.Base].List
		parent := Apply(res.Pop, base, g)
		before := append([]*certmodel.Certificate(nil), parent...)
		for op := Op(0); op < opCount; op++ {
			for _, a := range []int{int(op), int(op) + 1} {
				for _, salt := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
					m := Mut{Op: op, A: a, Salt: salt}
					child := g.Clone()
					child.Muts = append(child.Muts, m)
					want := certmodel.ListDigest(Apply(res.Pop, base, child))
					for i, memo := range []*rebuildMemo{nil, {}, warmed} {
						kind := [...]string{"no", "a fresh", "the warmed"}[i]
						got := applyNext(res.Pop, parent, m, memo)
						if certmodel.ListDigest(got) != want {
							t.Fatalf("%s + %s:%d:%x with %s memo: list from the parent differs from the replayed genome",
								g.Encode(), op, a, salt, kind)
						}
						if replay := apply(res.Pop, base, child, memo); certmodel.ListDigest(replay) != want {
							t.Fatalf("%s + %s:%d:%x with %s memo: replay differs from Apply",
								g.Encode(), op, a, salt, kind)
						}
						if memo == nil || op == OpPerturbAKID {
							continue
						}
						if again := applyNext(res.Pop, parent, m, memo); !slices.Equal(again, got) {
							t.Fatalf("%s + %s:%d:%x with %s memo: a repeated rebuild made a new certificate",
								g.Encode(), op, a, salt, kind)
						}
					}
				}
			}
		}
		if len(parent) != len(before) {
			t.Fatalf("%s: parent list length changed from %d to %d", g.Encode(), len(before), len(parent))
		}
		for i := range parent {
			if parent[i] != before[i] {
				t.Fatalf("%s: parent list entry %d replaced", g.Encode(), i)
			}
		}
	}
}

// TestApplyPure: applying a genome never mutates the base list.
func TestApplyPure(t *testing.T) {
	pop := population.Generate(population.Config{Size: 4, Seed: 2})
	base := pop.Domains[0].List
	before := certmodel.ListDigest(base)
	snapshot := append([]*certmodel.Certificate(nil), base...)
	for op := Op(0); op < opCount; op++ {
		Apply(pop, base, Genome{Muts: []Mut{{Op: op, A: 3, Salt: 7}}})
	}
	if certmodel.ListDigest(base) != before {
		t.Fatal("Apply mutated the base list digest")
	}
	for i := range base {
		if base[i] != snapshot[i] {
			t.Fatalf("Apply replaced base[%d]", i)
		}
	}
}

// TestGenomeEncodeStable: encoding is canonical and digest-stable.
func TestGenomeEncodeStable(t *testing.T) {
	g := Genome{Base: 3, Muts: []Mut{{Op: OpReverse, A: 5, Salt: 0xbeef}, {Op: OpBloat, A: 1, Salt: 2}}}
	if got, want := g.Encode(), "b3;3:5:beef;4:1:2"; got != want {
		t.Fatalf("Encode() = %q, want %q", got, want)
	}
	if g.Digest() != g.Clone().Digest() {
		t.Fatal("clone digest differs")
	}
	c := g.Clone()
	c.Muts[0].A = 99
	if g.Muts[0].A != 5 {
		t.Fatal("Clone shares the mutation slice")
	}
}

// TestScenariosReplayable: every emitted scenario survives the JSON round
// trip and materializes to the exact divergent list — digest-equal — so
// population injection replays what the fuzzer graded.
func TestScenariosReplayable(t *testing.T) {
	res, err := Run(context.Background(), smallCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	scs := res.Scenarios()
	if len(scs) == 0 {
		t.Fatal("campaign emitted no scenarios")
	}
	data, err := json.Marshal(scs)
	if err != nil {
		t.Fatal(err)
	}
	var back []population.Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	byDigest := map[string]*Divergence{}
	for _, d := range res.Divergences {
		if d.Novel {
			byDigest["novel-"+d.Digest[:12]] = d
		}
	}
	for _, s := range back {
		m, err := s.Materialize()
		if err != nil {
			t.Fatalf("scenario %s: %v", s.Name, err)
		}
		d := byDigest[s.Name]
		if d == nil {
			t.Fatalf("scenario %s has no matching novel divergence", s.Name)
		}
		if certmodel.ListDigest(m.List) != certmodel.ListDigest(d.List) {
			t.Fatalf("scenario %s: materialized list digest differs from the graded mutant", s.Name)
		}
		if !reflect.DeepEqual(s.Causes, d.Causes) {
			t.Fatalf("scenario %s: causes %v != %v", s.Name, s.Causes, d.Causes)
		}
	}
}

// TestVectorSignature: divergence detection and signature formatting.
func TestVectorSignature(t *testing.T) {
	pop := population.Generate(population.Config{Size: 2, Seed: 9})
	warm := difftest.DefaultWarmCache(pop)
	o := NewOracle(pop, warm, nil, nil)
	vec := o.Evaluate(pop.Domains[0].List)
	if len(vec) != 8 {
		t.Fatalf("vector has %d entries, want 8", len(vec))
	}
	if vec.Signature() == "" {
		t.Fatal("empty signature")
	}
	u, ok := core.VerdictUnknownIssuer, core.VerdictOK
	uniform := Vector{u, u, u, u, u, u, u, u}
	if uniform.Divergent() {
		t.Fatal("uniform vector reported divergent")
	}
	mixed := Vector{u, u, u, u, u, u, u, ok}
	if !mixed.Divergent() {
		t.Fatal("mixed vector not reported divergent")
	}
	if got, want := mixed.Signature(), strings.Repeat("unknown-issuer|", 7)+"OK"; got != want {
		t.Fatalf("signature %q, want %q", got, want)
	}
}

// TestEvaluateEmptyList: an empty list is graded like any other, with and
// without the verdict cache (a miss, then a hit), and every client refuses
// it at construction (pathbuild.ErrEmptyList).
func TestEvaluateEmptyList(t *testing.T) {
	pop := population.Generate(population.Config{Size: 2, Seed: 9})
	warm := difftest.DefaultWarmCache(pop)
	cache := verdictcache.New[Vector]("test.vcache", nil)
	r := core.VerdictRejectedList
	want := Vector{r, r, r, r, r, r, r, r}
	for _, o := range []*Oracle{NewOracle(pop, warm, nil, nil), NewOracle(pop, warm, cache, nil)} {
		for pass := 0; pass < 2; pass++ {
			if got := o.Evaluate(nil); got != want {
				t.Errorf("cache %v, pass %d: empty list grades %s, want %s", o.cache != nil, pass, got.Signature(), want.Signature())
			}
		}
	}
}
