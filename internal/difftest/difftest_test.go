package difftest

import (
	"bytes"
	"reflect"
	"testing"

	"chainchaos/internal/compliance"
	"chainchaos/internal/population"
	"chainchaos/internal/topo"
)

func TestDifferentialShape(t *testing.T) {
	pop := population.Generate(population.Config{Size: 20000, Seed: 3})
	sum := (&Harness{}).Run(pop)

	if sum.Total != 20000 {
		t.Fatalf("total = %d", sum.Total)
	}
	if sum.NonCompliant == 0 {
		t.Fatal("no non-compliant chains generated")
	}
	t.Logf("non-compliant: %d (%.2f%%)", sum.NonCompliant, 100*float64(sum.NonCompliant)/float64(sum.Total))
	t.Logf("all-browsers-pass: %.1f%%, all-libraries-pass: %.1f%%",
		100*float64(sum.AllBrowsersPass)/float64(sum.NonCompliant),
		100*float64(sum.AllLibrariesPass)/float64(sum.NonCompliant))
	t.Logf("discrepant: browsers %d, libraries %d", sum.BrowserDiscrepant, sum.LibraryDiscrepant)
	for c, n := range sum.CauseCounts {
		t.Logf("cause %v: %d", c, n)
	}
	for name, n := range sum.PerClientPass {
		t.Logf("pass %-10s %d", name, n)
	}

	// Headline shape: browsers validate more non-compliant chains than
	// libraries, both in all-pass rate and per-client.
	if sum.AllBrowsersPass <= sum.AllLibrariesPass {
		t.Errorf("browsers (all-pass %d) should beat libraries (all-pass %d)",
			sum.AllBrowsersPass, sum.AllLibrariesPass)
	}
	// Libraries disagree more often than browsers (paper: 10,804 vs 3,295).
	if sum.LibraryDiscrepant <= sum.BrowserDiscrepant {
		t.Errorf("library discrepancies (%d) should exceed browser discrepancies (%d)",
			sum.LibraryDiscrepant, sum.BrowserDiscrepant)
	}
	// CryptoAPI is the strongest library (AIA + backtracking).
	for _, other := range []string{"OpenSSL", "GnuTLS", "MbedTLS"} {
		if sum.PerClientPass["CryptoAPI"] < sum.PerClientPass[other] {
			t.Errorf("CryptoAPI (%d) should pass at least as many chains as %s (%d)",
				sum.PerClientPass["CryptoAPI"], other, sum.PerClientPass[other])
		}
	}
	// The dominant cause is missing AIA completion (I-4), as in the paper.
	if sum.CauseCounts[CauseI4AIA] == 0 {
		t.Error("no I-4 (AIA) causes attributed")
	}
	if sum.CauseCounts[CauseI2InputLimit] > sum.CauseCounts[CauseI4AIA] {
		t.Error("I-2 should be rare compared to I-4")
	}
}

// TestParallelMatchesSerial is the regression guard for the sharded engine:
// a serial run and multi-worker runs over the same population must produce
// bit-identical summaries and record streams — same counts, same cause
// attribution, and records in pop.Domains order.
func TestParallelMatchesSerial(t *testing.T) {
	pop := population.Generate(population.Config{Size: 8000, Seed: 3})
	serial, serialOut, _ := runOnce(t, pop, false, 1)
	// Odd worker counts exercise the remainder shard.
	for _, workers := range []int{8, 3} {
		sum, out, _ := runOnce(t, pop, false, workers)
		if !reflect.DeepEqual(serial, sum) {
			t.Errorf("serial and %d-worker summaries differ:\nserial:   %+v\nparallel: %+v", workers, headline(serial), headline(sum))
		}
		if !bytes.Equal(serialOut, out) {
			t.Errorf("serial and %d-worker record streams differ (%d vs %d bytes)", workers, len(serialOut), len(out))
		}
	}
	// More workers than domains must also be safe and identical.
	tiny := population.Generate(population.Config{Size: 3, Seed: 3})
	if !reflect.DeepEqual((&Harness{Workers: 1}).Run(tiny), (&Harness{Workers: 64}).Run(tiny)) {
		t.Error("64-worker run over a 3-domain population diverged from serial")
	}
}

// TestRunAnalyzedMatchesRun: handing the harness precomputed reports must
// not change the summary or the record stream in any way.
func TestRunAnalyzedMatchesRun(t *testing.T) {
	pop := population.Generate(population.Config{Size: 6000, Seed: 13})
	analyzer := &compliance.Analyzer{Completeness: compliance.CompletenessConfig{
		Roots:   pop.Roots(),
		Fetcher: pop.Repo,
	}}
	reports := make([]compliance.Report, len(pop.Domains))
	for i, d := range pop.Domains {
		reports[i] = analyzer.Analyze(d.Name, topo.Build(d.List))
	}
	var plainOut, reusedOut bytes.Buffer
	plain := (&Harness{Workers: 4, Record: collect(&plainOut)}).Run(pop)
	reused := (&Harness{Workers: 4, Record: collect(&reusedOut)}).RunAnalyzed(pop, reports)
	if !reflect.DeepEqual(plain, reused) {
		t.Errorf("precomputed-analysis run differs from plain run:\nplain:  %+v\nreused: %+v", headline(plain), headline(reused))
	}
	if !bytes.Equal(plainOut.Bytes(), reusedOut.Bytes()) {
		t.Errorf("precomputed-analysis record stream differs from plain run (%d vs %d bytes)", reusedOut.Len(), plainOut.Len())
	}
}

// headline projects a Summary's scalar fields for readable failure output.
func headline(s *Summary) map[string]int {
	return map[string]int{
		"Total":             s.Total,
		"NonCompliant":      s.NonCompliant,
		"AllBrowsersPass":   s.AllBrowsersPass,
		"AllLibrariesPass":  s.AllLibrariesPass,
		"BrowserDiscrepant": s.BrowserDiscrepant,
		"LibraryDiscrepant": s.LibraryDiscrepant,
	}
}

func TestCauseI2LongList(t *testing.T) {
	// Force a long-list chain through the harness's grading and confirm
	// GnuTLS's verdict carries the input-limit error while others pass.
	rec := runMutated(t, 9, func(d *population.Domain) {
		// Inflate the list beyond 16 with duplicates of its intermediates.
		for len(d.List) <= 16 {
			d.List = append(d.List, d.List[len(d.List)-1])
		}
	})
	if v := verdictOf(t, rec, "GnuTLS"); v.OK() {
		t.Error("GnuTLS should reject a 17-cert list")
	}
	if !hasCause(rec, CauseI2InputLimit) {
		t.Errorf("causes = %v, want I-2", rec.Causes)
	}
}
