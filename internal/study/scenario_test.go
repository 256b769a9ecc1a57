package study

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"chainchaos/internal/population"
)

// studyTestScenarios builds injectable scenarios from a donor population's
// chains, the shape cmd/divfuzz -scenarios emits.
func studyTestScenarios(t *testing.T) []population.Scenario {
	t.Helper()
	donor := population.Generate(population.Config{Size: 4, Seed: 99})
	var out []population.Scenario
	for i := 0; i < 2; i++ {
		d := donor.Domains[i]
		sc := population.Scenario{Name: fmt.Sprintf("study-test-%d", i), Domain: d.Name}
		for _, c := range d.List {
			sc.Certs = append(sc.Certs, population.CertSpecOf(c))
		}
		out = append(out, sc)
	}
	return out
}

// TestStudyScenarioReplay: scenario-replay sites appear in the streamed run
// (graded as captured without a listener or handshake), present the
// scenario's exact chain, and the JSONL stream stays byte-identical across
// worker/concurrency configurations.
func TestStudyScenarioReplay(t *testing.T) {
	scs := studyTestScenarios(t)
	base := Config{
		Sites: 24, Seed: 4, Vantages: 1, Concurrency: 4,
		Scenarios: scs, ScenarioRate: 0.3,
	}

	wantDomain := map[string]string{}
	for _, s := range scs {
		wantDomain[s.Name] = s.Domain
	}

	var firstJSONL []byte
	for _, tc := range []struct {
		workers, concurrency int
	}{
		{1, 1},
		{4, 8},
		{8, 4},
	} {
		cfg := base
		cfg.Workers = tc.workers
		cfg.Concurrency = tc.concurrency
		_, jsonl, recs := runStudy(t, cfg)
		replayed := 0
		for _, s := range recs {
			if s.Scenario == "" {
				continue
			}
			replayed++
			if s.Injected != defectScenario.String() || s.Server != "scenario" || !s.Scanned {
				t.Fatalf("rank %d: scenario site tagged injected=%q server=%q scanned=%v", s.Rank, s.Injected, s.Server, s.Scanned)
			}
			domain, ok := wantDomain[s.Scenario]
			if !ok {
				t.Fatalf("rank %d replays unknown scenario %q", s.Rank, s.Scenario)
			}
			if s.Domain != domain {
				t.Fatalf("rank %d: scenario %q served domain %q, want %q", s.Rank, s.Scenario, s.Domain, domain)
			}
		}
		if replayed == 0 {
			t.Fatalf("workers=%d: no scenario site replayed at rate %v over %d sites",
				tc.workers, base.ScenarioRate, base.Sites)
		}

		if firstJSONL == nil {
			firstJSONL = jsonl
		} else if !bytes.Equal(firstJSONL, jsonl) {
			t.Fatalf("workers=%d concurrency=%d: JSONL stream differs from the first configuration", tc.workers, tc.concurrency)
		}
	}
}

// TestStudyScenarioZeroIdentity: the scenario coin lives on its own salted
// streams, so a config with no scenarios (or a zero rate) streams
// byte-identical JSONL to a config that never heard of replay.
func TestStudyScenarioZeroIdentity(t *testing.T) {
	run := func(cfg Config) []byte {
		var buf bytes.Buffer
		if _, err := RunStream(context.Background(), cfg, Stream{Out: &buf}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := Config{Sites: 12, Seed: 4, Vantages: 1, Concurrency: 4, Workers: 4}
	plain := run(base)

	zeroRate := base
	zeroRate.Scenarios = studyTestScenarios(t)
	zeroRate.ScenarioRate = 0
	if !bytes.Equal(run(zeroRate), plain) {
		t.Fatal("zero-rate scenario config changed the stream")
	}

	noScenarios := base
	noScenarios.ScenarioRate = 0.5
	if !bytes.Equal(run(noScenarios), plain) {
		t.Fatal("rate without scenarios changed the stream")
	}
}
