package difftest

import (
	"testing"

	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/population"
)

// runMutated grades the single domain of a 1-domain population, its chain
// changed by mutate, as the harness's verdict stage does: through a Grader
// of the harness's Trust. It returns the domain's record.
func runMutated(t *testing.T, seed int64, mutate func(d *population.Domain)) *ChainRecord {
	t.Helper()
	pop := population.Generate(population.Config{Size: 1, Seed: seed})
	d := pop.Domains[0]
	mutate(d)
	g := Trust(pop, DefaultWarmCache(pop), nil).Grader()
	defer g.Close()
	rep := g.Analyze(d.List, d.Name)
	if rep.Compliant() {
		t.Fatal("mutation did not yield a non-compliant chain")
	}
	m := grade(g, d, rep)
	return &ChainRecord{Domain: d, Report: rep, Verdicts: m.Verdicts, Causes: m.Causes}
}

func hasCause(rec *ChainRecord, c Cause) bool {
	for _, got := range rec.Causes {
		if got == c {
			return true
		}
	}
	return false
}

func TestCauseI1Reversal(t *testing.T) {
	rec := runMutated(t, 31, func(d *population.Domain) {
		// Reverse everything after the leaf.
		tail := d.List[1:]
		for i, j := 0, len(tail)-1; i < j; i, j = i+1, j-1 {
			tail[i], tail[j] = tail[j], tail[i]
		}
	})
	if !hasCause(rec, CauseI1Reorder) {
		t.Errorf("causes = %v, want I-1", rec.Causes)
	}
	v, _ := rec.verdictOf("MbedTLS")
	if v.OK() {
		t.Error("MbedTLS should fail the reversed chain")
	}
	o, _ := rec.verdictOf("OpenSSL")
	if !o.OK() {
		t.Error("OpenSSL should pass the reversed chain")
	}
}

func TestCauseI4Incomplete(t *testing.T) {
	rec := runMutated(t, 32, func(d *population.Domain) {
		d.List = d.List[:1] // leaf only; AIA completes it
	})
	if !hasCause(rec, CauseI4AIA) {
		t.Errorf("causes = %v, want I-4", rec.Causes)
	}
	cv, _ := rec.verdictOf("CryptoAPI")
	if !cv.OK() {
		t.Error("CryptoAPI should complete via AIA")
	}
	ov, _ := rec.verdictOf("OpenSSL")
	if ov.OK() {
		t.Error("OpenSSL should fail without AIA")
	}
	// The verdict classes must mirror the paper's split: unknown-issuer
	// for the AIA-less library, OK for the fetcher.
	if ov.Class() != core.VerdictUnknownIssuer {
		t.Errorf("OpenSSL class = %v", ov.Class())
	}
	if cv.Class() != core.VerdictOK {
		t.Errorf("CryptoAPI class = %v", cv.Class())
	}
}

func TestClassDiscrepantDetectsMessageDifferences(t *testing.T) {
	rec := runMutated(t, 33, func(d *population.Domain) {
		d.List = d.List[:1]
	})
	// Libraries split between unknown-issuer and OK: class-discrepant.
	if !rec.ClassDiscrepant(clients.Library) {
		t.Error("library verdict classes should differ on an incomplete chain")
	}
}

func TestCauseStringCoverage(t *testing.T) {
	for c := CauseOther; c <= CauseI4AIA; c++ {
		if c.String() == "" {
			t.Errorf("cause %d renders empty", int(c))
		}
	}
	if CauseNames(nil) != "-" {
		t.Error("empty cause list rendering")
	}
	if CauseNames([]Cause{CauseI1Reorder, CauseI4AIA}) == "" {
		t.Error("cause list rendering")
	}
}
