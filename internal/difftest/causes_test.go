package difftest

import (
	"slices"
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

// verdictOf returns the named client's verdict on the record.
func verdictOf(t *testing.T, rec *ChainRecord, name string) ClientVerdict {
	t.Helper()
	for _, v := range rec.Verdicts {
		if v.Client == name {
			return v
		}
	}
	t.Fatalf("no %s verdict", name)
	return ClientVerdict{}
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
	rec := runMutated(t, 31, reverseTail)
	if !hasCause(rec, CauseI1Reorder) {
		t.Errorf("causes = %v, want I-1", rec.Causes)
	}
	if verdictOf(t, rec, "MbedTLS").OK() {
		t.Error("MbedTLS should fail the reversed chain")
	}
	if !verdictOf(t, rec, "OpenSSL").OK() {
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
	cv := verdictOf(t, rec, "CryptoAPI")
	if !cv.OK() {
		t.Error("CryptoAPI should complete via AIA")
	}
	ov := verdictOf(t, rec, "OpenSSL")
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
}

// reverseTail reverses everything after the leaf.
func reverseTail(d *population.Domain) {
	tail := d.List[1:]
	for i, j := 0, len(tail)-1; i < j; i, j = i+1, j-1 {
		tail[i], tail[j] = tail[j], tail[i]
	}
}

// TestCausesReadProfiles: I-1 blames a failing client whose profile lacks
// reordering. Give the failing verdicts names outside core.Profiles and
// there is no policy to read, so nobody is blamed; give every profile
// reordering and nobody lacks it.
func TestCausesReadProfiles(t *testing.T) {
	rec := runMutated(t, 31, reverseTail)
	if !hasCause(rec, CauseI1Reorder) {
		t.Fatalf("causes = %v, want I-1", rec.Causes)
	}

	renamed := *rec
	renamed.Verdicts = slices.Clone(rec.Verdicts)
	for i, v := range renamed.Verdicts {
		if !v.OK() {
			renamed.Verdicts[i].Client = "Unmodelled " + v.Client
		}
	}
	if causes := AttributeCauses(&renamed); slices.Contains(causes, CauseI1Reorder) {
		t.Errorf("causes = %v: a client with no profile was blamed for lacking reordering", causes)
	}

	for i := range core.Profiles {
		if p := &core.Profiles[i]; !p.Policy.Reorder {
			p.Policy.Reorder = true
			defer func() { p.Policy.Reorder = false }()
		}
	}
	if causes := AttributeCauses(rec); slices.Contains(causes, CauseI1Reorder) {
		t.Errorf("causes = %v with reordering in every profile, want no I-1", causes)
	}
}

// TestAttributeCausesAllocs: attribution allocates only the slice of causes
// it returns; finding each client's profile costs nothing.
func TestAttributeCausesAllocs(t *testing.T) {
	rec := runMutated(t, 31, reverseTail)
	if n := testing.AllocsPerRun(100, func() { AttributeCauses(rec) }); n > float64(len(rec.Causes)) {
		t.Errorf("AttributeCauses allocates %.0f times for %d causes", n, len(rec.Causes))
	}
}

// TestClassDiscrepantAllocs: comparing verdict classes allocates nothing,
// and neither does folding a non-compliant record into a summary that has
// seen its clients and causes before.
func TestClassDiscrepantAllocs(t *testing.T) {
	rec := runMutated(t, 31, reverseTail)
	if n := testing.AllocsPerRun(100, func() { rec.ClassDiscrepant(clients.Browser, "Safari") }); n != 0 {
		t.Errorf("ClassDiscrepant allocates %v times", n)
	}
	s := newSummary()
	s.absorb(rec)
	if n := testing.AllocsPerRun(100, func() { s.absorb(rec) }); n != 0 {
		t.Errorf("absorb into a warm summary allocates %v times", n)
	}
}
