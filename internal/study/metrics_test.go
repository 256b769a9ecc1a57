package study

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
	"chainchaos/internal/tlsserve"
)

// TestStudyMetricsReconcile is the ledger check the -metrics flag rests on:
// every counter the registry publishes must agree EXACTLY with the fields
// the study Report derives independently (its own per-result loops and the
// listeners' accessors). A chaos config makes all the interesting counters
// nonzero first.
func TestStudyMetricsReconcile(t *testing.T) {
	const sites = 10
	reg := obs.NewRegistry()
	rep, err := RunStream(context.Background(), Config{
		Sites: sites, Seed: 4, Vantages: 2, Concurrency: 4,
		Faults:  tlsserve.FaultConfig{FailFirst: 2},
		Clock:   faults.NewFakeClock(time.Now()),
		Metrics: reg,
	}, Stream{})
	if err != nil {
		t.Fatal(err)
	}

	snap := rep.Snapshot
	if snap == nil {
		t.Fatal("report carries no snapshot despite a wired registry")
	}
	c := snap.Counters

	// Scanner: final-result error counters mirror the cause breakdown.
	if got, want := c["scan.errors.dial"], int64(rep.ScanErrorCauses.Dial); got != want {
		t.Errorf("scan.errors.dial = %d, report says %d", got, want)
	}
	if got, want := c["scan.errors.handshake"], int64(rep.ScanErrorCauses.Handshake); got != want {
		t.Errorf("scan.errors.handshake = %d, report says %d", got, want)
	}
	if got, want := c["scan.errors.cancelled"], int64(rep.ScanErrorCauses.Cancelled); got != want {
		t.Errorf("scan.errors.cancelled = %d, report says %d", got, want)
	}
	errSum := c["scan.errors.dial"] + c["scan.errors.handshake"] + c["scan.errors.cancelled"]
	if errSum != int64(rep.ScanErrors) {
		t.Errorf("scan error counters sum to %d, report says %d", errSum, rep.ScanErrors)
	}
	if c["scan.handshakes"] == 0 {
		t.Error("scan.handshakes = 0; successful captures went uncounted")
	}

	// Re-scan recovery and the listeners' fault ledger.
	if got, want := c["study.rescanned"], int64(rep.Rescanned); got != want {
		t.Errorf("study.rescanned = %d, report says %d", got, want)
	}
	if got, want := c["serve.faults"], int64(rep.FaultsInjected); got != want {
		t.Errorf("serve.faults = %d, report says %d", got, want)
	}
	if rep.FaultsInjected != 2*sites {
		t.Errorf("faults injected = %d, want %d (FailFirst=2 per listener)", rep.FaultsInjected, 2*sites)
	}
	if got, want := c["serve.accept_retries"], int64(rep.AcceptRetries); got != want {
		t.Errorf("serve.accept_retries = %d, report says %d", got, want)
	}
	if got, want := c["serve.deadline_expiries"], int64(rep.DeadlineExpiries); got != want {
		t.Errorf("serve.deadline_expiries = %d, report says %d", got, want)
	}

	// The no-waste proof: exactly one leaf minted per site, even though the
	// seed lands stale-leaf defects in this population.
	if rep.LeavesGenerated != sites {
		t.Errorf("leaves generated = %d, want %d", rep.LeavesGenerated, sites)
	}
	if got := c["study.leaves_generated"]; got != int64(sites) {
		t.Errorf("study.leaves_generated = %d, want %d", got, sites)
	}

	// The engine timed every stage once per site: the deploy source hands
	// off one site per block. The snapshot ships as valid JSON with the
	// pipeline table rendered from those pairs (the third table).
	for _, stage := range []string{"study.deploy", "study.scan", "study.grade"} {
		if got := snap.Histograms[stage+".latency"].Count; got != sites {
			t.Errorf("%s.latency count = %d, want %d", stage, got, sites)
		}
		if got := c[stage+".items"]; got != sites {
			t.Errorf("%s.items = %d, want %d", stage, got, sites)
		}
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round obs.Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	tables := rep.Tables()
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3 (per-client, failures, pipeline)", len(tables))
	}
}

// TestStudyStaleLeafServedDirectly asserts the stale-leaf fix end to end: a
// run whose population includes stale-leaf sites serves the expired leaf
// itself (every client rejects it; graders see a structurally fine chain)
// and still mints exactly one certificate per site. Seed 8 draws four
// stale-leaf sites among its 24.
func TestStudyStaleLeafServedDirectly(t *testing.T) {
	rep, _, recs := runStudy(t, Config{Sites: 24, Seed: 8, Vantages: 1, Concurrency: 8})
	if rep.LeavesGenerated != len(recs) {
		t.Fatalf("leaves generated = %d for %d sites", rep.LeavesGenerated, len(recs))
	}
	var stale int
	for _, s := range recs {
		if s.Injected != defectStaleLeaf.String() {
			continue
		}
		stale++
		if !s.Scanned || s.Verdicts == nil {
			t.Fatalf("%s: never graded", s.Domain)
		}
		for client, ok := range s.Verdicts {
			if ok {
				t.Errorf("%s: %s accepted an expired leaf", s.Domain, client)
			}
		}
	}
	if stale == 0 {
		t.Fatal("seed produced no stale-leaf site")
	}
}
