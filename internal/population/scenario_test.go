package population

import (
	"context"
	"fmt"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/pipeline"
)

// testScenarios builds two injectable scenarios from an independent
// population's chains — the same shape cmd/divfuzz emits, without running a
// fuzz campaign inside the test.
func testScenarios(t *testing.T) []Scenario {
	t.Helper()
	donor := Generate(Config{Size: 4, Seed: 77})
	var out []Scenario
	for i := 0; i < 2; i++ {
		d := donor.Domains[i]
		sc := Scenario{Name: fmt.Sprintf("test-%d", i), Domain: d.Name}
		for _, c := range d.List {
			sc.Certs = append(sc.Certs, CertSpecOf(c))
		}
		m, err := sc.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if certmodel.ListDigest(m.List) != certmodel.ListDigest(d.List) {
			t.Fatal("scenario spec round trip changed the list digest")
		}
		out = append(out, sc)
	}
	return out
}

// TestScenarioInjectionRangeInvariance: with scenarios loaded, a Flow
// resumed at rank r still emits bit-identical domains to the same ranks of a
// full flow — injection decisions are per-rank streams, so a resumed run
// replays the same scenarios at the same ranks.
func TestScenarioInjectionRangeInvariance(t *testing.T) {
	cfg := Config{
		Size: 120, Seed: 3, Workers: 4,
		Scenarios: testScenarios(t), ScenarioRate: 0.15,
	}

	collect := func(resume int) map[int]string {
		src := NewSource(cfg)
		got := map[int]string{}
		flow := src.Flow(context.Background(), pipeline.Options{Name: "scenrange", Resume: resume})
		if err := flow.Drain(func(rank int, d *Domain) error {
			got[rank] = rangeKey(d) + "|" + d.Scenario
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	full := collect(0)
	if len(full) != cfg.Size {
		t.Fatalf("full flow emitted %d domains, want %d", len(full), cfg.Size)
	}
	injected := 0
	for rank := 1; rank <= cfg.Size; rank++ {
		if replay, _ := cfg.scenarioPlan(rank); replay {
			injected++
		}
	}
	if injected == 0 {
		t.Fatalf("no rank drew the scenario coin at rate %v over %d sites", cfg.ScenarioRate, cfg.Size)
	}

	for _, resume := range []int{1, 30, 90, cfg.Size - 1} {
		sub := collect(resume)
		if len(sub) != cfg.Size-resume {
			t.Fatalf("resume %d: emitted %d domains, want %d", resume, len(sub), cfg.Size-resume)
		}
		for rank, key := range sub {
			if key != full[rank] {
				t.Fatalf("resume %d: rank %d differs from full run:\nresumed: %s\nfull:    %s",
					resume, rank, key, full[rank])
			}
		}
	}
}

// TestScenarioDomainShape: an injected rank presents the scenario's chain
// verbatim — same hostname, same list digest — tagged so downstream analysis
// can separate replayed topologies from generated ones.
func TestScenarioDomainShape(t *testing.T) {
	scs := testScenarios(t)
	cfg := Config{Size: 80, Seed: 3, Scenarios: scs, ScenarioRate: 0.25}
	pop := Generate(cfg)

	want := map[string]certmodel.FP{}
	for _, s := range scs {
		m, err := s.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		want[s.Name] = certmodel.ListDigest(m.List)
	}

	seen := 0
	for _, d := range pop.Domains {
		if d.Scenario == "" {
			continue
		}
		seen++
		digest, ok := want[d.Scenario]
		if !ok {
			t.Fatalf("rank %d injected unknown scenario %q", d.Rank, d.Scenario)
		}
		if certmodel.ListDigest(d.List) != digest {
			t.Fatalf("rank %d: injected list digest differs from scenario %q", d.Rank, d.Scenario)
		}
		if d.Server != "scenario" || d.CA != "fuzzed" {
			t.Fatalf("rank %d: scenario domain tagged server=%q ca=%q", d.Rank, d.Server, d.CA)
		}
		if d.Truth != (Truth{}) {
			t.Fatalf("rank %d: scenario domain carries injected truth %+v", d.Rank, d.Truth)
		}
	}
	if seen == 0 {
		t.Fatal("population injected no scenario domains")
	}
}

// TestScenarioZeroRateIdentity: the scenario coin lives on its own salted
// stream, so loading scenarios at rate zero — or none at all — leaves every
// domain byte-identical to a population generated before replay existed.
func TestScenarioZeroRateIdentity(t *testing.T) {
	keys := func(cfg Config) []string {
		pop := Generate(cfg)
		out := make([]string, 0, len(pop.Domains))
		for _, d := range pop.Domains {
			out = append(out, rangeKey(d))
		}
		return out
	}

	base := keys(Config{Size: 60, Seed: 5})
	zeroRate := keys(Config{Size: 60, Seed: 5, Scenarios: testScenarios(t), ScenarioRate: 0})
	noScenarios := keys(Config{Size: 60, Seed: 5, ScenarioRate: 0.5})

	for i := range base {
		if zeroRate[i] != base[i] {
			t.Fatalf("rank %d: zero-rate scenario config changed the domain", i+1)
		}
		if noScenarios[i] != base[i] {
			t.Fatalf("rank %d: rate without scenarios changed the domain", i+1)
		}
	}
}
