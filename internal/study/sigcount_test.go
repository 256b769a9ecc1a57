package study

import (
	"context"
	"io"
	"testing"

	"chainchaos/internal/obs"
)

// TestDedupStudySignatureCount is the signature memo's count sentinel. A
// dedup study verifies each distinct (child, parent) pair once per process,
// so its real ECDSA verifications stay within about one per minted leaf —
// the leaf's link to its issuer — plus the shared CA spine. Checking
// signatures before names and without the memo cost about 44.6 per leaf.
// The count is process-wide, so this test must not run in parallel with
// the package's other tests.
func TestDedupStudySignatureCount(t *testing.T) {
	verifies := func() int64 {
		reg := obs.NewRegistry()
		reg.RecordProcess()
		return reg.Snapshot().Counters["certmodel.sig_verifies"]
	}
	reg := obs.NewRegistry()
	before := verifies()
	if _, err := RunStream(context.Background(), Config{
		Sites: 400, Seed: 21, Vantages: 1, Concurrency: 2, Workers: 2,
		Reuse: 0.95, DistinctChains: 40, Dedup: true, Metrics: reg,
	}, Stream{Out: io.Discard}); err != nil {
		t.Fatal(err)
	}
	got := verifies() - before
	leaves := reg.Snapshot().Counters["study.leaves_generated"]
	if leaves == 0 {
		t.Fatal("study minted no leaves")
	}
	if limit := 1.1*float64(leaves) + 32; float64(got) > limit {
		t.Errorf("%d real signature verifications for %d minted leaves, limit %.0f", got, leaves, limit)
	}
	t.Logf("%d real signature verifications for %d minted leaves (%.2f per leaf)", got, leaves, float64(got)/float64(leaves))
}
