package population

import (
	"fmt"
	"math"
	"testing"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/compliance"
	"chainchaos/internal/topo"
)

// collectTruth aggregates ground-truth labels over a population.
func collectTruth(pop *Population) (dupPrevented, dupLeaf, azureDupLeaf, mismatch int) {
	for _, d := range pop.Domains {
		if d.Truth.DuplicatePrevented {
			dupPrevented++
		}
		if d.Truth.DuplicateLeaf {
			dupLeaf++
			if d.Server == "Microsoft-Azure-Application-Gateway" || d.Server == "IIS" {
				azureDupLeaf++
			}
		}
		if d.Truth.LeafMismatch {
			mismatch++
		}
	}
	return
}

func TestServerChecksPreventDuplicates(t *testing.T) {
	pop := Generate(Config{Size: 60000, Seed: 5})
	dupPrevented, dupLeaf, azureDupLeaf, mismatch := collectTruth(pop)

	// Azure/IIS must never deploy a duplicate leaf — their checks reject
	// the upload and the admin retries (Table 4/Table 10's zero cells).
	if azureDupLeaf != 0 {
		t.Errorf("%d duplicate-leaf chains on duplicate-checking servers", azureDupLeaf)
	}
	// Some attempts must actually have been prevented, proving the pipeline
	// runs through the server models rather than skipping them.
	if dupPrevented == 0 {
		t.Error("no duplicate uploads were prevented; the server-check path is dead")
	}
	if dupLeaf == 0 {
		t.Error("no duplicate leaves deployed at all")
	}
	// Leaf mismatch rate ~6.9%.
	rate := float64(mismatch) / float64(len(pop.Domains))
	if rate < 0.055 || rate > 0.085 {
		t.Errorf("leaf mismatch rate = %.3f, want ≈0.069", rate)
	}
}

func TestAIAFailureTaxonomy(t *testing.T) {
	pop := Generate(Config{Size: 60000, Seed: 6})
	an := &compliance.Analyzer{Completeness: compliance.CompletenessConfig{
		Roots:   pop.Roots(),
		Fetcher: pop.Repo,
	}}
	var missing, dead int
	for _, d := range pop.Domains {
		if !d.Truth.Incomplete {
			continue
		}
		rep := an.Analyze(d.Name, topo.Build(d.List))
		if rep.Completeness.Class != compliance.Incomplete {
			continue
		}
		if d.Truth.AIAMissing {
			missing++
			if rep.Completeness.AIARecoverable {
				t.Errorf("%s: AIA-less chain reported recoverable", d.Name)
			}
			if rep.Completeness.Terminal != aia.NoAIA {
				t.Errorf("%s: terminal = %v, want no-aia", d.Name, rep.Completeness.Terminal)
			}
		}
		if d.Truth.AIADead {
			dead++
			if rep.Completeness.AIARecoverable {
				t.Errorf("%s: dead-URI chain reported recoverable", d.Name)
			}
		}
	}
	if missing == 0 || dead == 0 {
		t.Errorf("taxonomy not exercised: missing=%d dead=%d", missing, dead)
	}
}

func TestRootCrossPairPresent(t *testing.T) {
	pop := Generate(Config{Size: 60000, Seed: 7})
	found := 0
	for _, d := range pop.Domains {
		if !d.Truth.MultiplePaths || !d.Truth.IncludesRoot {
			continue
		}
		// Look for a same-subject/same-SKID pair where one side is a
		// trusted self-signed root (the §6.2 744-chain class).
		g := topo.Build(d.List)
		for i, a := range g.Nodes {
			for _, b := range g.Nodes[i+1:] {
				if a.Cert.Subject != b.Cert.Subject || len(a.Cert.SubjectKeyID) == 0 {
					continue
				}
				if string(a.Cert.SubjectKeyID) != string(b.Cert.SubjectKeyID) {
					continue
				}
				if (a.Cert.SelfSigned() && pop.Roots().Contains(a.Cert)) ||
					(b.Cert.SelfSigned() && pop.Roots().Contains(b.Cert)) {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Error("no root/cross-signed same-subject pairs in the population")
	}
}

func TestOtherLeafDomains(t *testing.T) {
	pop := Generate(Config{Size: 30000, Seed: 8})
	count := 0
	for _, d := range pop.Domains {
		if !d.Truth.LeafOther {
			continue
		}
		count++
		if len(d.List) != 1 {
			t.Errorf("%s: 'other' deployment has %d certs", d.Name, len(d.List))
		}
		if compliance.ClassifyLeafPlacement(d.List, d.Name) != compliance.LeafOther {
			t.Errorf("%s: 'other' leaf not classified as Other (CN=%q)",
				d.Name, d.List[0].Subject.CommonName)
		}
	}
	rate := float64(count) / float64(len(pop.Domains))
	if rate < 0.003 || rate > 0.010 {
		t.Errorf("'other' rate = %.4f, want ≈0.006", rate)
	}
}

func TestIncompleteMissingCounts(t *testing.T) {
	pop := Generate(Config{Size: 60000, Seed: 9})
	one, more := 0, 0
	for _, d := range pop.Domains {
		if !d.Truth.Incomplete {
			continue
		}
		switch {
		case d.Truth.MissingCount == 1:
			one++
		case d.Truth.MissingCount > 1:
			more++
		}
	}
	if one == 0 || more == 0 {
		t.Fatalf("missing-count split not exercised: one=%d more=%d", one, more)
	}
	frac := float64(one) / float64(one+more)
	if frac < 0.6 || frac > 0.85 {
		t.Errorf("missing-one fraction = %.2f, want ≈0.72", frac)
	}
}

func TestDeployedListsNeverShareBackingArrays(t *testing.T) {
	// Mutating one domain's list must not corrupt another's — a guard
	// against append-aliasing bugs in the injection pipeline.
	pop := Generate(Config{Size: 2000, Seed: 10})
	var aDomain, bDomain *Domain
	for _, d := range pop.Domains {
		if len(d.List) >= 3 {
			if aDomain == nil {
				aDomain = d
			} else if d.CA == aDomain.CA {
				bDomain = d
				break
			}
		}
	}
	if aDomain == nil || bDomain == nil {
		t.Skip("no comparable domains found")
	}
	orig := bDomain.List[1]
	aDomain.List[1] = certmodel.SyntheticRoot("Clobber", pop.Cfg.Base)
	if !bDomain.List[1].Equal(orig) {
		t.Error("two domains share a backing array")
	}
}

// TestPaddedMatchesFmt: Padded renders what fmt's %0*d renders, including
// the sign placement of negative numbers (the slot templates' ranks are
// negative) and the extremes of int64.
func TestPaddedMatchesFmt(t *testing.T) {
	for _, w := range []int{3, 4, 6} {
		for _, n := range []int{0, 1, 999_999, 1_000_000, 12_345_678, -1, -3_000, -100_000, math.MinInt64, math.MaxInt64} {
			want := fmt.Sprintf("%0*d", w, n)
			if got := Padded("", n, w, ""); got != want {
				t.Errorf("Padded(%d, width %d) = %q, want %q", n, w, got, want)
			}
			if got := Padded("site-", n, w, ".com"); got != "site-"+want+".com" {
				t.Errorf("Padded with affixes (%d, width %d) = %q", n, w, got)
			}
		}
	}
}

// TestServerProfiles: the server mix is one distribution over distinct
// fingerprints, and every generated domain reports one of them.
func TestServerProfiles(t *testing.T) {
	servers := ServerProfiles()
	names := map[string]bool{}
	total := 0.0
	for _, s := range servers {
		if names[s.Name] {
			t.Errorf("server %q listed twice", s.Name)
		}
		names[s.Name] = true
		total += s.share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("server shares sum to %v, want 1", total)
	}
	for _, d := range Generate(Config{Size: 500, Seed: 6}).Domains {
		if !names[d.Server] {
			t.Fatalf("domain %s reports server %q outside the server profiles", d.Name, d.Server)
		}
	}
}
