package experiments

import (
	"fmt"

	"chainchaos/internal/compliance"
	"chainchaos/internal/population"
	"chainchaos/internal/report"
)

// LeafPlacement reproduces Table 3: where the end-entity certificate sits in
// the deployed list.
func (e *Env) LeafPlacement() *report.Table {
	reports := e.Reports()
	total := len(reports)
	counts := map[compliance.LeafPlacement]int{}
	for _, r := range reports {
		counts[r.Leaf]++
	}
	t := report.New(fmt.Sprintf("Table 3 — Leaf certificate deployment (%d domains)", total),
		"Place", "Match", "#domains")
	t.Add("Y", "Y", report.Count(counts[compliance.LeafCorrectMatched], total))
	t.Add("Y", "x", report.Count(counts[compliance.LeafCorrectMismatched], total))
	t.Add("x", "Y", report.Count(counts[compliance.LeafIncorrectMatched], total))
	t.Add("x", "x", report.Count(counts[compliance.LeafIncorrectMismatched], total))
	t.Add("Other", "", report.Count(counts[compliance.LeafOther], total))
	return t
}

// IssuanceOrder reproduces Table 5: chains with non-compliant issuance
// order, by category (categories overlap; the total counts distinct chains).
func (e *Env) IssuanceOrder() *report.Table {
	reports := e.Reports()
	var dup, irr, multi, rev, anyBad, revAll int
	for _, r := range reports {
		o := r.Order
		if o.HasDuplicates {
			dup++
		}
		if o.HasIrrelevant {
			irr++
		}
		if o.MultiplePaths {
			multi++
		}
		if o.ReversedAny {
			rev++
		}
		if o.ReversedAll && o.ReversedAny {
			revAll++
		}
		if o.NonCompliant() {
			anyBad++
		}
	}
	t := report.New("Table 5 — Chains with non-compliant issuance order",
		"Type", "#domains (% of non-compliant order)")
	t.Add("Duplicate Certificates", report.Count(dup, anyBad))
	t.Add("Irrelevant Certificates", report.Count(irr, anyBad))
	t.Add("Multiple Paths", report.Count(multi, anyBad))
	t.Add("Reversed Sequences", report.Count(rev, anyBad))
	t.Add("Total (distinct chains)", fmt.Sprintf("%d", anyBad))
	t.Note = fmt.Sprintf("all paths reversed: %d of %d reversed chains", revAll, rev)
	return t
}

// Completeness reproduces Table 7: chain completeness under the four-vendor
// union store with AIA available.
func (e *Env) Completeness() *report.Table {
	reports := e.Reports()
	total := len(reports)
	var withRoot, withoutRoot, incomplete, recoverable, missOne int
	var aiaMissing, aiaDead, aiaWrong int
	for _, r := range reports {
		switch r.Completeness.Class {
		case compliance.CompleteWithRoot:
			withRoot++
		case compliance.CompleteWithoutRoot:
			withoutRoot++
		case compliance.Incomplete:
			incomplete++
			if r.Completeness.AIARecoverable {
				recoverable++
				if r.Completeness.MissingIntermediates == 1 {
					missOne++
				}
			} else {
				switch r.Completeness.Terminal.String() {
				case "no-aia":
					aiaMissing++
				case "fetch-failed":
					aiaDead++
				case "wrong-issuer":
					aiaWrong++
				}
			}
		}
	}
	t := report.New("Table 7 — Completeness of certificate chain", "Type", "#domains")
	t.Add("Complete Chain w/ Root", report.Count(withRoot, total))
	t.Add("Complete Chain w/o Root", report.Count(withoutRoot, total))
	t.Add("Incomplete Chain", report.Count(incomplete, total))
	t.Note = fmt.Sprintf(
		"of incomplete: %s recoverable via recursive AIA (%s missing exactly one cert); failures: %d no-AIA, %d dead URI, %d wrong issuer",
		report.Pct(recoverable, incomplete), report.Pct(missOne, recoverable), aiaMissing, aiaDead, aiaWrong)
	return t
}

// RootStoreAIA reproduces Table 8: additional incomplete chains relative to
// the union+AIA baseline when a client trusts a single vendor store, with
// and without AIA support.
func (e *Env) RootStoreAIA() *report.Table {
	pop := e.Population()
	graphs := e.Graphs()

	baseline := 0
	for _, r := range e.Reports() {
		if r.Completeness.Class == compliance.Incomplete {
			baseline++
		}
	}

	t := report.New("Table 8 — Additional incomplete chains by root store and AIA support",
		"Root Store", "AIA Supported", "AIA Not Supported")
	for _, store := range pop.Vendors.Stores() {
		counts := make([]int, 2)
		for i, withAIA := range []bool{true, false} {
			cfg := compliance.CompletenessConfig{Roots: store}
			if withAIA {
				cfg.Fetcher = pop.Repo
			}
			n := 0
			for _, g := range graphs {
				if compliance.AnalyzeCompleteness(g, cfg).Class == compliance.Incomplete {
					n++
				}
			}
			counts[i] = n - baseline
			if counts[i] < 0 {
				counts[i] = 0
			}
		}
		t.Addf(store.Name(), counts[0], counts[1])
	}
	t.Note = fmt.Sprintf("baseline (union store + AIA): %d incomplete chains", baseline)
	return t
}

// HTTPServerBreakdown reproduces Table 10: which HTTP servers host the
// non-compliant chains, by defect type.
func (e *Env) HTTPServerBreakdown() *report.Table {
	pop := e.Population()
	reports := e.Reports()

	servers := population.ServerProfiles()
	idx := map[string]int{}
	for i, s := range servers {
		idx[s.Name] = i
	}
	types := []string{"Overview", "Duplicate Certificates", "Duplicate Leaf", "Irrelevant Certificates", "Multiple Paths", "Reversed Sequences", "Incomplete Chain"}
	counts := make([][]int, len(types))
	for i := range counts {
		counts[i] = make([]int, len(servers)+1) // last column: total
	}
	bump := func(row int, server string) {
		col, ok := idx[server]
		if !ok {
			col = len(servers) - 1 // the long tail
		}
		counts[row][col]++
		counts[row][len(servers)]++
	}
	for i, r := range reports {
		d := pop.Domains[i]
		if !r.Compliant() {
			bump(0, d.Server)
		}
		if r.Order.HasDuplicates {
			bump(1, d.Server)
		}
		if r.Order.DuplicateLeaf {
			bump(2, d.Server)
		}
		if r.Order.HasIrrelevant {
			bump(3, d.Server)
		}
		if r.Order.MultiplePaths {
			bump(4, d.Server)
		}
		if r.Order.ReversedAny {
			bump(5, d.Server)
		}
		if r.Completeness.Class == compliance.Incomplete {
			bump(6, d.Server)
		}
	}

	headers := []string{"Non-compliant Type"}
	for i := range servers {
		headers = append(headers, servers[i].Column())
	}
	headers = append(headers, "Total")
	t := report.New("Table 10 — HTTP servers of non-compliant chains", headers...)
	for i, ty := range types {
		row := []string{ty}
		total := counts[i][len(servers)]
		for c := range servers {
			row = append(row, report.Count(counts[i][c], total))
		}
		row = append(row, fmt.Sprintf("%d", total))
		t.Add(row...)
	}
	return t
}

// CABreakdown reproduces Table 11: non-compliant chains by issuing CA or
// reseller.
func (e *Env) CABreakdown() *report.Table {
	pop := e.Population()
	reports := e.Reports()

	type row struct {
		total, nonCompliant, dup, irr, multi, rev, inc int
	}
	byCA := map[string]*row{}
	var order []string
	for i, r := range reports {
		caName := pop.Domains[i].CA
		rw := byCA[caName]
		if rw == nil {
			rw = &row{}
			byCA[caName] = rw
			order = append(order, caName)
		}
		rw.total++
		if !r.Compliant() {
			rw.nonCompliant++
		}
		if r.Order.HasDuplicates {
			rw.dup++
		}
		if r.Order.HasIrrelevant {
			rw.irr++
		}
		if r.Order.MultiplePaths {
			rw.multi++
		}
		if r.Order.ReversedAny {
			rw.rev++
		}
		if r.Completeness.Class == compliance.Incomplete {
			rw.inc++
		}
	}

	t := report.New("Table 11 — CAs/resellers of non-compliant chains",
		"CA", "Total", "Non-compliant", "Duplicate", "Irrelevant", "MultiPath", "Reversed", "Incomplete")
	for _, name := range order {
		rw := byCA[name]
		t.Add(name,
			fmt.Sprintf("%d", rw.total),
			report.Count(rw.nonCompliant, rw.total),
			report.Count(rw.dup, rw.total),
			report.Count(rw.irr, rw.total),
			report.Count(rw.multi, rw.total),
			report.Count(rw.rev, rw.total),
			report.Count(rw.inc, rw.total))
	}
	return t
}
