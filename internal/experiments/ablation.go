package experiments

import (
	"fmt"

	"chainchaos/internal/pathbuild"
	"chainchaos/internal/report"
)

// CapabilityAblation quantifies §6.2's recommendation: "clients equipped
// with all three capabilities [completion, backtracking, reorganization]
// exhibit a significantly higher success rate in validating server
// certificate chains." The recommended policy is run over the population's
// non-compliant chains with each capability removed in turn.
func (e *Env) CapabilityAblation() *report.Table {
	pop := e.Population()
	reports := e.Reports()

	variants := []struct {
		name string
		mut  func(*pathbuild.Policy)
	}{
		{"recommended (all capabilities)", func(p *pathbuild.Policy) {}},
		{"without AIA completion", func(p *pathbuild.Policy) { p.AIA = false }},
		{"without backtracking", func(p *pathbuild.Policy) { p.Backtrack = false }},
		{"without order reorganization", func(p *pathbuild.Policy) { p.Reorder = false }},
		{"without priority preferences", func(p *pathbuild.Policy) {
			p.ValidityPref = pathbuild.ValidityNone
			p.KIDPref = pathbuild.KIDNone
			p.KeyUsagePref = false
			p.BasicConstraintsPref = false
			p.PreferTrustedRoot = false
		}},
		{"bare (first-candidate, nothing else)", func(p *pathbuild.Policy) {
			*p = pathbuild.Policy{Name: "bare", Reorder: true, EliminateDuplicates: true}
		}},
	}

	// Collect the non-compliant chains once.
	var bad []int
	for i, r := range reports {
		if !r.Compliant() {
			bad = append(bad, i)
		}
	}

	t := report.New("§6.2 — capability ablation over non-compliant chains",
		"Policy variant", "Pass rate", "Avg candidates", "Avg paths tried")
	for _, v := range variants {
		policy := pathbuild.DefaultPolicy()
		v.mut(&policy)
		b := &pathbuild.Builder{
			Policy:  policy,
			Roots:   pop.Roots(),
			Fetcher: pop.Repo,
			Now:     pop.Cfg.Base,
		}
		pass, cands, tried := 0, 0, 0
		for _, idx := range bad {
			out := b.Build(pop.Domains[idx].List, "")
			if out.OK() {
				pass++
			}
			cands += out.CandidatesConsidered
			tried += out.PathsTried
		}
		n := len(bad)
		if n == 0 {
			n = 1
		}
		t.Add(v.name,
			report.Pct(pass, len(bad)),
			fmt.Sprintf("%.1f", float64(cands)/float64(n)),
			fmt.Sprintf("%.2f", float64(tried)/float64(n)))
	}
	t.Note = "run over the population's non-compliant chains with the union root store"
	return t
}
