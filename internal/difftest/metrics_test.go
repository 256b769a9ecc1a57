package difftest

import (
	"testing"

	"chainchaos/internal/clients"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
)

// TestHarnessMetricsExact pins the batched-flush design: even though the
// per-shard builders tally construction metrics locally and publish in
// batches, nothing may be lost — the registry's totals must equal what the
// Summary implies arithmetically.
func TestHarnessMetricsExact(t *testing.T) {
	pop := population.Generate(population.Config{Size: 4000, Seed: 3})
	reg := obs.NewRegistry()
	sum := (&Harness{Workers: 4, Metrics: reg}).Run(pop)

	snap := reg.Snapshot()
	c := snap.Counters
	if got := c["difftest.chains"]; got != int64(sum.Total) {
		t.Errorf("difftest.chains = %d, summary says %d", got, sum.Total)
	}
	if got := c["difftest.noncompliant"]; got != int64(sum.NonCompliant) {
		t.Errorf("difftest.noncompliant = %d, summary says %d", got, sum.NonCompliant)
	}
	// Every non-compliant chain is built once per client profile, and only
	// those chains reach the builders.
	wantBuilds := int64(sum.NonCompliant) * int64(len(clients.All()))
	if got := c["pathbuild.builds"]; got != wantBuilds {
		t.Errorf("pathbuild.builds = %d, want %d (NonCompliant × clients)", got, wantBuilds)
	}
	var wantOK int64
	for _, n := range sum.PerClientPass {
		wantOK += int64(n)
	}
	if got := c["pathbuild.builds_ok"]; got != wantOK {
		t.Errorf("pathbuild.builds_ok = %d, want %d (sum of per-client passes)", got, wantOK)
	}
	// Every successful build records its constructed path's length; failed
	// builds record one too when they completed a candidate path, so the
	// count sits between builds_ok and builds.
	if n := snap.Histograms["pathbuild.chain_length"].Count; n < wantOK || n > wantBuilds {
		t.Errorf("chain_length count = %d, want within [%d, %d]", n, wantOK, wantBuilds)
	}
	// The engine is the harness's stage clock: the verdict stage observes
	// every domain, the source once per hand-off.
	if got := snap.Histograms["difftest.verdict.latency"].Count; got != int64(sum.Total) {
		t.Errorf("difftest.verdict.latency count = %d, want %d (one per domain)", got, sum.Total)
	}
	if got := snap.Histograms["difftest.domains.latency"].Count; got < 1 || got > int64(sum.Total) {
		t.Errorf("difftest.domains.latency count = %d, want one per hand-off, within [1, %d]", got, sum.Total)
	}

	// An uninstrumented harness over the same population is unaffected and
	// bit-identical in its summary.
	bare := (&Harness{Workers: 4}).Run(pop)
	if bare.Total != sum.Total || bare.NonCompliant != sum.NonCompliant {
		t.Error("instrumentation changed the summary")
	}
}
