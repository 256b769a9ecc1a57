package pathbuild

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/validate"
)

// figureTopologies builds the paper's canonical chain shapes — Figure 2's
// four topologies, a Figure 3-style long duplicate-heavy list, the same
// list padded past scanMax so the searcher indexes it, and Figure 4's
// cross-signed multi-path list — with synthetic certificates, each paired
// with a trust store.
func figureTopologies(tag string) []struct {
	name  string
	list  []*certmodel.Certificate
	roots *rootstore.Store
} {
	root := certmodel.SyntheticRoot("Fig Root "+tag, base)
	top := certmodel.SyntheticIntermediate("Fig CA 2 "+tag, root, base)
	issuing := certmodel.SyntheticIntermediate("Fig CA 1 "+tag, top, base)
	leaf := certmodel.SyntheticLeaf("fig."+tag+".example", "1", issuing, base, base.AddDate(1, 0, 0))
	stranger := certmodel.SyntheticRoot("Fig Stranger "+tag, base)

	legacy := certmodel.SyntheticRoot("Fig Legacy "+tag, base.AddDate(-8, 0, 0))
	cross := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: top.Subject, Issuer: legacy.Subject, Serial: "fig-cross-" + tag,
		NotBefore: base, NotAfter: base.AddDate(4, 0, 0),
		Key: certmodel.KeyOf(top), SignedBy: certmodel.KeyOf(legacy),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
	})

	// Figure 3 shape: a pile of stale sibling leaves and duplicate copies
	// before the usable intermediates.
	long := []*certmodel.Certificate{leaf}
	for i := 0; i < 6; i++ {
		stale := certmodel.SyntheticLeaf("fig."+tag+".example", fmt.Sprintf("stale-%d", i),
			issuing, base.AddDate(-2, 0, 0), base.AddDate(-1, 0, 0))
		long = append(long, stale, stale) // bit-identical duplicate copies
	}
	long = append(long, top, issuing, root)

	// The Figure 3 shape padded to 40 entries, past scanMax.
	padded := []*certmodel.Certificate{leaf}
	for i := 0; i < 18; i++ {
		stale := certmodel.SyntheticLeaf("fig."+tag+".example", fmt.Sprintf("padded-%d", i),
			issuing, base.AddDate(-2, 0, 0), base.AddDate(-1, 0, 0))
		padded = append(padded, stale, stale)
	}
	padded = append(padded, top, issuing, root)

	store := rootstore.NewWith("fig-"+tag, root)
	crossStore := rootstore.NewWith("fig-cross-"+tag, root, legacy)
	// Exercise the sealed read paths too: these stores never grow again.
	store.Seal()
	crossStore.Seal()

	return []struct {
		name  string
		list  []*certmodel.Certificate
		roots *rootstore.Store
	}{
		{"fig2a-compliant", []*certmodel.Certificate{leaf, issuing, top, root}, store},
		{"fig2b-irrelevant", []*certmodel.Certificate{leaf, stranger, issuing, top, root}, store},
		{"fig2c-crosssigned", []*certmodel.Certificate{leaf, issuing, legacy, cross, top, root}, crossStore},
		{"fig2d-duplicated", []*certmodel.Certificate{leaf, issuing, top, root, top, issuing}, store},
		{"fig3-long", long, store},
		{"fig3-padded40", padded, store},
		{"fig4-multipath", []*certmodel.Certificate{leaf, issuing, cross, top}, crossStore},
	}
}

func oraclePolicies() []Policy {
	chrome := Policy{Name: "chrome-like", Reorder: true, EliminateDuplicates: true,
		ValidityPref: ValidityMostRecent, KIDPref: KIDMatchFirst, KeyUsagePref: true,
		BasicConstraintsPref: true, PreferTrustedRoot: true, Backtrack: true}
	openssl := Policy{Name: "openssl-like", Reorder: true, EliminateDuplicates: true,
		ValidityPref: ValidityFirstValid, KIDPref: KIDMatchOrAbsentFirst}
	mbed := Policy{Name: "mbed-like", PartialValidation: true, AllowSelfSignedLeaf: true}
	rec := DefaultPolicy()
	rec.AIA = false
	return []Policy{chrome, openssl, mbed, rec}
}

// linearCollectOracle reimplements candidate collection as a plain
// sequential scan: fresh seen maps, full front-to-back pool walk, then a
// stable sort by the reference rank (rank_test.go). It is the test oracle
// for collectCandidates in both its scanned and its indexed mode.
func linearCollectOracle(s *searcher, current *certmodel.Certificate, lastPos, depth int) ([]candidate, int) {
	b := s.builder
	var cands []candidate
	seen := make(map[certmodel.FP]bool)
	onPath := make(map[certmodel.FP]bool)
	for _, c := range s.path {
		onPath[c.Fingerprint()] = true
	}
	considered := 0

	add := func(cert *certmodel.Certificate, pos int, source candSource, terminal bool) {
		fp := cert.Fingerprint()
		if onPath[fp] || seen[fp] {
			return
		}
		if cert.Equal(current) {
			return
		}
		if b.Policy.PartialValidation {
			if !current.SignatureVerifiedBy(cert) {
				return
			}
			if !b.Now.IsZero() && !cert.ValidAt(b.Now) {
				return
			}
			if b.Revocation.IsRevoked(cert) {
				return
			}
		}
		seen[fp] = true
		cands = append(cands, candidate{cert: cert, pos: int32(pos), source: source, terminal: terminal})
	}

	if b.Roots != nil {
		for _, root := range b.Roots.FindIssuers(current) {
			add(root, -1, sourceRoots, true)
		}
	}
	for _, entry := range s.pool {
		if !b.Policy.Reorder && entry.pos <= lastPos {
			continue
		}
		considered++
		if certmodel.NameIndicatesIssuance(entry.cert, current) {
			add(entry.cert, entry.pos, sourceList, false)
		}
	}
	if b.Policy.UseCache && b.Cache != nil {
		for _, cached := range b.Cache.FindIssuers(current) {
			add(cached, -1, sourceCache, false)
		}
	}
	return referenceOrder(s, current, cands, depth), considered
}

// TestCandidateCollectionOracle: on every Figure 2/3/4 topology — lists the
// searcher scans and one it indexes — under every policy family, for every
// path tip and forward-only cursor, collectCandidates must return the same
// shortlist in the same order, and account the same CandidatesConsidered,
// as the plain sequential scan ranked by the reference. The path holds the
// leaf and a bit-identical copy of the list's second certificate under
// another pointer, which must still count as on the path.
func TestCandidateCollectionOracle(t *testing.T) {
	modes := map[bool]int{}
	for _, pol := range oraclePolicies() {
		for _, tc := range figureTopologies(pol.Name) {
			b := &Builder{Policy: pol, Roots: tc.roots, Now: base.AddDate(0, 1, 0)}
			s := b.searcher()
			s.begin(tc.list, "")
			s.push(tc.list[0])
			s.push(certmodel.NewSynthetic(certmodel.SyntheticConfigOf(tc.list[1])))
			modes[s.indexed]++

			for _, current := range tc.list {
				for lastPos := 0; lastPos <= len(tc.list); lastPos++ {
					before := s.out.CandidatesConsidered
					got := append([]candidate(nil), s.collectCandidates(current, lastPos, 1)...)
					gotConsidered := s.out.CandidatesConsidered - before
					want, wantConsidered := linearCollectOracle(s, current, lastPos, 1)

					label := fmt.Sprintf("%s/%s tip=%s lastPos=%d", pol.Name, tc.name, current.Subject.CommonName, lastPos)
					if gotConsidered != wantConsidered {
						t.Fatalf("%s: CandidatesConsidered %d, linear scan %d", label, gotConsidered, wantConsidered)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d candidates, linear scan %d", label, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.cert != w.cert || g.pos != w.pos || g.source != w.source || g.terminal != w.terminal {
							t.Fatalf("%s: candidate %d = {%s pos=%d src=%d term=%v}, linear scan {%s pos=%d src=%d term=%v}",
								label, i,
								g.cert.Subject.CommonName, g.pos, g.source, g.terminal,
								w.cert.Subject.CommonName, w.pos, w.source, w.terminal)
						}
					}
				}
			}
		}
	}
	if modes[false] == 0 || modes[true] == 0 {
		t.Fatalf("topologies cover scanned=%d and indexed=%d lists; want both", modes[false], modes[true])
	}
}

// TestDuplicatesFoldByBytes: a duplicate is a bit-identical certificate
// (paper §3.1), so a list whose repeated entries are separate copies must
// build exactly like the list that repeats one pointer, whether the
// searcher scans it or indexes it, and a policy that eliminates duplicates
// keeps one pool entry per distinct certificate.
func TestDuplicatesFoldByBytes(t *testing.T) {
	for _, pol := range oraclePolicies() {
		for _, tc := range figureTopologies(pol.Name + "-copies") {
			copies := make([]*certmodel.Certificate, len(tc.list))
			seen := map[*certmodel.Certificate]bool{}
			cloned := 0
			for i, c := range tc.list {
				copies[i] = c
				if seen[c] {
					copies[i] = certmodel.NewSynthetic(certmodel.SyntheticConfigOf(c))
					if copies[i].Fingerprint() != c.Fingerprint() {
						t.Fatalf("%s: copy of entry %d is not bit-identical", tc.name, i)
					}
					cloned++
				}
				seen[c] = true
			}
			if cloned == 0 {
				continue
			}
			now := base.AddDate(0, 1, 0)
			want := (&Builder{Policy: pol, Roots: tc.roots, Now: now}).Build(tc.list, "")
			b := &Builder{Policy: pol, Roots: tc.roots, Now: now}
			got := b.Build(copies, "")
			wantPool := len(tc.list)
			if pol.EliminateDuplicates {
				wantPool = len(seen)
			}
			if len(b.scratch.pool) != wantPool {
				t.Errorf("%s/%s: pool holds %d entries, want %d", pol.Name, tc.name, len(b.scratch.pool), wantPool)
			}
			if !outcomesEqual(got, want) {
				t.Errorf("%s/%s: %d copied duplicates: path=%d ok=%v cand=%d tried=%d; repeated pointers: path=%d ok=%v cand=%d tried=%d",
					pol.Name, tc.name, cloned,
					len(got.Path), got.Validation.OK, got.CandidatesConsidered, got.PathsTried,
					len(want.Path), want.Validation.OK, want.CandidatesConsidered, want.PathsTried)
			}
		}
	}
}

// outcomesEqual compares everything a caller can observe about two Outcomes.
func outcomesEqual(a, b Outcome) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	if a.Validation.OK != b.Validation.OK ||
		len(a.Validation.Findings) != len(b.Validation.Findings) ||
		a.CandidatesConsidered != b.CandidatesConsidered ||
		a.PathsTried != b.PathsTried ||
		a.AIAFetches != b.AIAFetches ||
		len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i].Fingerprint() != b.Path[i].Fingerprint() {
			return false
		}
	}
	return true
}

// TestScratchReuseMatchesFreshBuilder: a Builder reused across many Build
// calls with different lists must behave exactly like a fresh Builder per
// call — no scratch state (pool, index, used set, candidate buffers) may
// leak between calls, including between a scanned list and an indexed one.
func TestScratchReuseMatchesFreshBuilder(t *testing.T) {
	for _, pol := range oraclePolicies() {
		cases := figureTopologies(pol.Name + "-reuse")
		reused := &Builder{Policy: pol, Now: base.AddDate(0, 1, 0)}
		// Interleave the topologies twice over, so every pairing of
		// consecutive lists (long after short, duplicated after distinct)
		// crosses the reused scratch.
		for round := 0; round < 2; round++ {
			for _, tc := range cases {
				reused.Roots = tc.roots
				got := reused.Build(tc.list, "")
				fresh := &Builder{Policy: pol, Roots: tc.roots, Now: base.AddDate(0, 1, 0)}
				want := fresh.Build(tc.list, "")
				if view := reused.BuildScratch(tc.list, ""); !outcomesEqual(*view, want) {
					t.Errorf("%s/%s round %d: BuildScratch outcome diverges from Build: path=%d ok=%v cand=%d tried=%d err=%v",
						pol.Name, tc.name, round, len(view.Path), view.Validation.OK, view.CandidatesConsidered, view.PathsTried, view.Err)
				}
				if !outcomesEqual(got, want) {
					t.Errorf("%s/%s round %d: reused builder outcome diverges from fresh builder\nreused: path=%d ok=%v cand=%d tried=%d err=%v\nfresh:  path=%d ok=%v cand=%d tried=%d err=%v",
						pol.Name, tc.name, round,
						len(got.Path), got.Validation.OK, got.CandidatesConsidered, got.PathsTried, got.Err,
						len(want.Path), want.Validation.OK, want.CandidatesConsidered, want.PathsTried, want.Err)
				}
			}
		}
	}
}

// TestBuildAllocs: on a reused Builder, a build allocates only what it
// returns. A validating build allocates its path and nothing else, whether
// the searcher scans the list or indexes it. A build that ends in one
// untrusted finding adds the findings slice, whose text is rendered only
// when read: 2 in all. So does a backtracking build whose every attempt
// fails, which keeps its first attempt in scratch until it reports it.
// BuildScratch, which copies nothing out, allocates nothing in any of
// these cases, nor when it refuses a list over the input limit.
func TestBuildAllocs(t *testing.T) {
	for _, pol := range oraclePolicies() {
		topologies := figureTopologies(pol.Name + "-allocs")
		empty := rootstore.NewWith("allocs-empty")
		cases := []struct {
			name  string
			list  []*certmodel.Certificate
			roots *rootstore.Store
		}{
			{"fig2a-untrusted", topologies[0].list, empty},
			{"fig2c-all-fail", topologies[2].list, empty},
		}
		for _, tc := range topologies {
			switch tc.name {
			case "fig2a-compliant", "fig3-long", "fig3-padded40":
				cases = append(cases, tc)
			}
		}
		b := &Builder{Policy: pol, Now: base.AddDate(0, 1, 0)}
		seen := map[string]int{}
		for _, tc := range cases {
			b.Roots = tc.roots
			out := b.Build(tc.list, "")
			allocs := testing.AllocsPerRun(50, func() { b.Build(tc.list, "") })
			label := fmt.Sprintf("%s/%s (%d entries, %d tried)", pol.Name, tc.name, len(tc.list), out.PathsTried)
			t.Logf("%s: %.0f allocations", label, allocs)
			if scratch := testing.AllocsPerRun(50, func() { b.BuildScratch(tc.list, "") }); scratch != 0 {
				t.Errorf("%s: BuildScratch allocates %.1f times, want 0", label, scratch)
			}
			if out.PathsTried > 1 && !out.OK() {
				seen["backtracked"]++
			}
			switch f := out.Validation.Findings; {
			case out.OK():
				seen["valid"]++
				if allocs != 1 {
					t.Errorf("%s: validating build allocates %.1f times, want 1", label, allocs)
				}
			case out.Err == nil && len(f) == 1 && f[0].Problem == validate.ProblemUntrusted:
				seen["untrusted"]++
				if allocs > 2 {
					t.Errorf("%s: untrusted build allocates %.1f times, want at most 2", label, allocs)
				}
			default:
				t.Fatalf("%s: unexpected outcome: err=%v findings=%v", label, out.Err, f)
			}
		}
		if seen["valid"] == 0 || seen["untrusted"] == 0 {
			t.Fatalf("%s: %d validating and %d untrusted builds; want both", pol.Name, seen["valid"], seen["untrusted"])
		}
		if pol.Backtrack && seen["backtracked"] == 0 {
			t.Fatalf("%s: no build tried a second path and failed; want one", pol.Name)
		}
	}

	// A refused list: Build copies its limit error out, BuildScratch
	// points at the searcher's own.
	limited := &Builder{Policy: Policy{Name: "limited", Reorder: true, MaxInputList: 2}}
	list := figureTopologies("allocs-limit")[0].list
	if out := limited.Build(list, ""); !errors.Is(out.Err, ErrInputListTooLong) {
		t.Fatalf("limited build: err = %v, want ErrInputListTooLong", out.Err)
	}
	if allocs := testing.AllocsPerRun(50, func() { limited.Build(list, "") }); allocs != 1 {
		t.Errorf("refused Build allocates %.1f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { limited.BuildScratch(list, "") }); allocs != 0 {
		t.Errorf("refused BuildScratch allocates %.1f times, want 0", allocs)
	}
}

// TestBuildOutcomePathIsIndependent: the path returned by Build must be a
// copy, not a view of builder scratch — a later Build on the same Builder
// must not mutate an earlier Outcome.
func TestBuildOutcomePathIsIndependent(t *testing.T) {
	cases := figureTopologies("indep")
	b := &Builder{Policy: DefaultPolicy(), Roots: cases[0].roots, Now: base.AddDate(0, 1, 0)}
	b.Policy.AIA = false

	first := b.Build(cases[0].list, "")
	snapshot := make([]certmodel.FP, len(first.Path))
	for i, c := range first.Path {
		snapshot[i] = c.Fingerprint()
	}
	for _, tc := range cases[1:] {
		b.Roots = tc.roots
		b.Build(tc.list, "")
	}
	if len(first.Path) != len(snapshot) {
		t.Fatalf("earlier outcome path length changed")
	}
	for i, c := range first.Path {
		if c.Fingerprint() != snapshot[i] {
			t.Fatalf("earlier outcome path element %d mutated by a later Build", i)
		}
	}
	if first.Err != nil && !errors.Is(first.Err, ErrPathTooLong) {
		t.Fatalf("unexpected error: %v", first.Err)
	}
}

// TestOutcomeSurvivesLaterBuilds: attempts validate into builder scratch,
// so an Outcome must copy out its path and findings. Every failing Outcome
// (a wrong domain, an untrusted path, a backtracking build whose every
// attempt fails) must read the same path, findings and rendered text after
// the same Builder has built every topology under other domains and stores,
// through Build and through BuildScratch, whose outcomes live in the very
// scratch the earlier ones were copied out of. A refused list's error must
// survive too.
func TestOutcomeSurvivesLaterBuilds(t *testing.T) {
	type snapshot struct {
		path     []certmodel.FP
		findings []string
	}
	take := func(o Outcome) snapshot {
		var s snapshot
		for _, c := range o.Path {
			s.path = append(s.path, c.Fingerprint())
		}
		for _, f := range o.Validation.Findings {
			s.findings = append(s.findings, fmt.Sprintf("%d %d %s | %s", f.Index, f.Problem, f.Detail(), f))
		}
		return s
	}
	for _, pol := range oraclePolicies() {
		topologies := figureTopologies(pol.Name + "-survive")
		empty := rootstore.NewWith("survive-empty")
		b := &Builder{Policy: pol, Now: base.AddDate(0, 1, 0)}
		var outs []Outcome
		var snaps []snapshot
		for i, tc := range topologies {
			for _, roots := range []*rootstore.Store{tc.roots, empty} {
				b.Roots = roots
				out := b.Build(tc.list, "first.invalid")
				if out.OK() || len(out.Validation.Findings) == 0 {
					t.Fatalf("%s/%s: want a failed validation, got ok=%v err=%v", pol.Name, tc.name, out.OK(), out.Err)
				}
				outs = append(outs, out)
				snaps = append(snaps, take(out))
				next := topologies[(i+1)%len(topologies)]
				b.BuildScratch(next.list, "between.invalid")
			}
		}
		// The refused list is fig3-long, 16 entries; the later refusals
		// name other lengths, so a refusal still pointing at scratch
		// would read differently.
		limited := &Builder{Policy: pol, Now: b.Now}
		limited.Policy.MaxInputList = 2
		refused := limited.Build(topologies[4].list, "")
		refusal := refused.Err.Error()
		for _, tc := range topologies {
			for _, roots := range []*rootstore.Store{tc.roots, empty} {
				b.Roots = roots
				b.Build(tc.list, "")
				b.BuildScratch(tc.list, "scratch.invalid")
				b.Build(tc.list, "later.invalid")
				b.BuildScratch(tc.list, "")
			}
			limited.BuildScratch(tc.list, "")
			limited.BuildScratch(tc.list[:1], "")
		}
		for i, out := range outs {
			if got := take(out); !reflect.DeepEqual(got, snaps[i]) {
				t.Errorf("%s: outcome %d changed after later builds:\nbefore %v\nafter  %v", pol.Name, i, snaps[i], got)
			}
		}
		if got := refused.Err.Error(); got != refusal {
			t.Errorf("%s: refusal %q changed after later builds to %q", pol.Name, refusal, got)
		}
	}
}
