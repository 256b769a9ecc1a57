package experiments

import (
	"bytes"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/difftest"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
)

// ClientCapabilities reproduces Table 9: the full capability matrix of the
// eight client models, measured (not configured) via the Table 2 scenarios.
func (e *Env) ClientCapabilities() (*report.Table, error) {
	runner, err := e.Runner()
	if err != nil {
		return nil, err
	}
	reports, err := runner.RunAll()
	if err != nil {
		return nil, err
	}
	headers := []string{"Type"}
	for _, r := range reports {
		headers = append(headers, r.Profile.Name)
	}
	t := report.New("Table 9 — Capabilities of TLS implementations", headers...)
	row := func(label string, cell func(clients.CapabilityReport) string) {
		cells := []string{label}
		for _, r := range reports {
			cells = append(cells, cell(r))
		}
		t.Add(cells...)
	}
	row("Order Reorganization", func(r clients.CapabilityReport) string { return report.Mark(r.OrderReorganization) })
	row("Redundancy Elimination", func(r clients.CapabilityReport) string { return report.Mark(r.RedundancyElimination) })
	row("AIA Completion", func(r clients.CapabilityReport) string { return report.Mark(r.AIACompletion) })
	row("Validity Priority", func(r clients.CapabilityReport) string { return r.Validity.String() })
	row("KID Matching Priority", func(r clients.CapabilityReport) string { return r.KID.String() })
	row("KeyUsage Correctness Priority", func(r clients.CapabilityReport) string {
		if r.KeyUsagePref {
			return "KUP"
		}
		return "-"
	})
	row("Basic Constraints Priority", func(r clients.CapabilityReport) string {
		if r.BasicConstraints {
			return "BP"
		}
		return "-"
	})
	row("Path Length Constraint", func(r clients.CapabilityReport) string {
		s := r.MaxChainString()
		if r.InputListLimited {
			s += " (input list)"
		}
		return s
	})
	row("Self-signed Leaf Certificate", func(r clients.CapabilityReport) string { return report.Mark(r.SelfSignedLeafAllowed) })
	return t, nil
}

// CaseLongChain reproduces Figure 3 / finding I-2: the
// assiste6.serpro.gov.br shape — a 17-certificate list whose correct path
// spans positions 8 -> 1 -> 16 -> 0, which GnuTLS rejects for size alone.
func (e *Env) CaseLongChain() (*report.Table, error) {
	root, err := certgen.NewRoot("Serpro Root")
	if err != nil {
		return nil, err
	}
	mid, err := root.NewIntermediate("Serpro Policy CA")
	if err != nil {
		return nil, err
	}
	issuing, err := mid.NewIntermediate("Serpro Issuing CA")
	if err != nil {
		return nil, err
	}
	leaf, err := issuing.NewLeaf("assiste6.serpro.gov.br")
	if err != nil {
		return nil, err
	}

	// Pad the list to 17 certificates with stale leaves for the same
	// domain (duplicated-renewal debris), placing the real path at
	// positions 0 (leaf), 16 (issuing), 1 (mid), 8 (root).
	list := make([]*certmodel.Certificate, 17)
	list[0] = leaf.Cert
	list[16] = issuing.Cert
	list[1] = mid.Cert
	list[8] = root.Cert
	padSerial := 0
	for i := range list {
		if list[i] != nil {
			continue
		}
		padSerial++
		stale, err := issuing.NewLeaf("assiste6.serpro.gov.br",
			certgen.WithSerial(int64(900000+padSerial)),
			certgen.WithValidity(certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
		if err != nil {
			return nil, err
		}
		list[i] = stale.Cert
	}
	roots := rootstore.NewWith("test", root.Cert)

	t := report.New("Figure 3 / I-2 — 17-certificate list, correct path 8->1->16->0",
		"Client", "Result", "Detail")
	trust := core.Trust{Roots: roots, Now: certgen.Reference}
	for _, p := range core.Profiles {
		out := trust.Builder(p).Build(list, "assiste6.serpro.gov.br")
		detail := "-"
		switch {
		case out.Err != nil:
			detail = out.Err.Error()
		case !out.Validation.OK:
			detail = out.Validation.Findings[0].String()
		}
		t.Add(p.Name, passFail(out.OK()), detail)
	}
	return t, nil
}

// CaseBacktracking reproduces Figure 4 / finding I-3: the moex.gov.tw shape.
// The intermediate's issuer key exists as an untrusted self-signed root
// (list position 1) and as a variant signed by a trusted root (position 3).
// Clients without backtracking commit to the untrusted path.
func (e *Env) CaseBacktracking() (*report.Table, error) {
	trusted, err := certgen.NewRoot("MOEX Trusted Root")
	if err != nil {
		return nil, err
	}
	// The shared intermediate key, self-signed (untrusted variant).
	topSelf, err := certgen.NewRoot("MOEX Government CA")
	if err != nil {
		return nil, err
	}
	topByTrusted, err := trusted.CrossSign(topSelf)
	if err != nil {
		return nil, err
	}
	issuing, err := topSelf.NewIntermediate("MOEX Issuing CA")
	if err != nil {
		return nil, err
	}
	leaf, err := issuing.NewLeaf("moex.gov.tw")
	if err != nil {
		return nil, err
	}
	// List: 0=leaf, 1=untrusted self-signed variant, 2=issuing CA,
	// 3=trusted-signed variant, 4=trusted root.
	list := []*certmodel.Certificate{leaf.Cert, topSelf.Cert, issuing.Cert, topByTrusted, trusted.Cert}
	roots := rootstore.NewWith("test", trusted.Cert)

	t := report.New("Figure 4 / I-3 — multiple candidate paths, untrusted root first",
		"Client", "Result", "Chosen upper CA", "Paths tried")
	trust := core.Trust{Roots: roots, Now: certgen.Reference}
	for _, p := range core.Profiles {
		out := trust.Builder(p).Build(list, "moex.gov.tw")
		chosen := "-"
		for _, c := range out.Path {
			if bytes.Equal(c.PublicKeyID, topSelf.Cert.PublicKeyID) {
				if c.Equal(topSelf.Cert) {
					chosen = "self-signed (untrusted)"
				} else {
					chosen = "cross-signed (trusted)"
				}
			}
		}
		t.Addf(p.Name, passFail(out.OK()), chosen, out.PathsTried)
	}
	return t, nil
}

// CaseValidityPriority reproduces Figure 5: two same-subject candidates
// differing only in validity; which one does each client put in the path?
func (e *Env) CaseValidityPriority() (*report.Table, error) {
	runner, err := e.Runner()
	if err != nil {
		return nil, err
	}
	sc := runner.Set.Validity
	t := report.New("Figure 5 — candidate selection among same-subject issuers",
		"Client", "Chosen candidate", "Inferred policy")
	trust := core.Trust{Roots: sc.Roots, Now: certgen.Reference}
	for _, p := range core.Profiles {
		out := trust.Builder(p).Build(sc.List, sc.Domain)
		label := "-"
		if len(out.Path) > 1 {
			label = sc.LabelOf(out.Path[1])
		}
		policy := map[string]string{
			"I2": "most recent (VP2)", "I": "first valid (VP1)", "I1": "presented order (no priority)",
		}[label]
		if policy == "" {
			policy = "unknown"
		}
		t.Add(p.Name, label, policy)
	}
	return t, nil
}

// DifferentialOverview reproduces the §5.2 result overview: pass rates and
// discrepancy counts over the population's non-compliant chains, with the
// I-1…I-4 cause attribution. The compliance grading is shared with the
// server-side tables through Env.Reports, not recomputed.
func (e *Env) DifferentialOverview() *report.Table {
	pop := e.Population()
	sum := (&difftest.Harness{Workers: e.Workers, Metrics: e.Metrics}).RunAnalyzed(pop, e.Reports())
	return DifferentialTable(sum)
}

// DifferentialTable renders a differential Summary as the §5.2 overview
// table — shared by the batch path above and the streaming path
// (DifferentialStreamSummary).
func DifferentialTable(sum *difftest.Summary) *report.Table {
	t := report.New("§5.2 — Differential testing overview", "Metric", "Value")
	t.Addf("chains analyzed", sum.Total)
	t.Add("non-compliant chains", report.Count(sum.NonCompliant, sum.Total))
	t.Add("pass in all 3 browsers (Safari excluded)", report.Pct(sum.AllBrowsersPass, sum.NonCompliant))
	t.Add("pass in all 4 libraries", report.Pct(sum.AllLibrariesPass, sum.NonCompliant))
	t.Add("browser discrepancies (pass/fail)", report.Count(sum.BrowserDiscrepant, sum.NonCompliant))
	t.Add("library discrepancies (pass/fail)", report.Count(sum.LibraryDiscrepant, sum.NonCompliant))
	t.Add("browser discrepancies (verdict class)", report.Count(sum.BrowserClassDiscrepant, sum.NonCompliant))
	t.Add("library discrepancies (verdict class)", report.Count(sum.LibraryClassDiscrepant, sum.NonCompliant))
	for _, c := range []difftest.Cause{difftest.CauseI1Reorder, difftest.CauseI2InputLimit, difftest.CauseI3Backtrack, difftest.CauseI4AIA, difftest.CauseOther} {
		t.Addf("cause "+c.String(), sum.CauseCounts[c])
	}
	for _, p := range clients.All() {
		t.Add("pass rate "+p.Name, report.Pct(sum.PerClientPass[p.Name], sum.NonCompliant))
	}
	return t
}

// PrioritizationStats reproduces the §6.2 analysis: chains where several
// candidates share both subject DN and key identifier, split into the
// trusted-root-vs-intermediate case and the validity-only case.
func (e *Env) PrioritizationStats() *report.Table {
	pop := e.Population()
	graphs := e.Graphs()
	roots := pop.Roots()

	var multiCandidate, rootVsIntermediate, validityOnly int
	for _, g := range graphs {
		found := false
		foundRoot := false
		foundValidity := false
		for i, a := range g.Nodes {
			for _, b := range g.Nodes[i+1:] {
				if a.Cert.Subject != b.Cert.Subject {
					continue
				}
				if len(a.Cert.SubjectKeyID) == 0 || !bytes.Equal(a.Cert.SubjectKeyID, b.Cert.SubjectKeyID) {
					continue
				}
				found = true
				aSelf, bSelf := a.Cert.SelfSigned(), b.Cert.SelfSigned()
				if (aSelf && roots.Contains(a.Cert)) || (bSelf && roots.Contains(b.Cert)) {
					foundRoot = true
				} else if a.Cert.NotBefore != b.Cert.NotBefore || a.Cert.NotAfter != b.Cert.NotAfter {
					foundValidity = true
				}
			}
		}
		if found {
			multiCandidate++
		}
		if foundRoot {
			rootVsIntermediate++
		}
		if foundValidity {
			validityOnly++
		}
	}
	t := report.New("§6.2 — Same-subject/same-KID candidate sets in deployed chains", "Class", "#chains")
	t.Addf("chains with same-DN+KID candidate pairs", multiCandidate)
	t.Addf("  of which: intermediate vs trusted self-signed root", rootVsIntermediate)
	t.Addf("  of which: candidates differing only in validity", validityOnly)
	t.Note = "recommendation: prefer the trusted self-signed root; among intermediates prefer the most recently issued"
	return t
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
