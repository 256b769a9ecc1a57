package pathbuild

import (
	"errors"
	"testing"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/rootstore"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

// pki is the standard four-cert fixture: root -> ca2 -> ca1 -> leaf.
type pki struct {
	root, ca2, ca1, leaf *certmodel.Certificate
	roots                *rootstore.Store
}

func newPKI(tag string) *pki {
	root := certmodel.SyntheticRoot("PB Root "+tag, base)
	ca2 := certmodel.SyntheticIntermediate("PB CA2 "+tag, root, base)
	ca1 := certmodel.SyntheticIntermediate("PB CA1 "+tag, ca2, base)
	leaf := certmodel.SyntheticLeaf("pb-"+tag+".example", "1", ca1, base, base.AddDate(1, 0, 0))
	return &pki{root, ca2, ca1, leaf, rootstore.NewWith("pb", root)}
}

func builderFor(p *pki, policy Policy) *Builder {
	return &Builder{Policy: policy, Roots: p.roots, Now: base.AddDate(0, 1, 0)}
}

func reorderPolicy() Policy {
	return Policy{Name: "t", Reorder: true, EliminateDuplicates: true}
}

func TestBuildCompliantChain(t *testing.T) {
	p := newPKI("ok")
	out := builderFor(p, reorderPolicy()).Build(
		[]*certmodel.Certificate{p.leaf, p.ca1, p.ca2}, "pb-ok.example")
	if !out.OK() {
		t.Fatalf("build failed: err=%v findings=%v", out.Err, out.Validation.Findings)
	}
	// Path should be leaf, ca1, ca2 and then the root appended from the
	// store as the terminal anchor.
	if len(out.Path) != 4 || !out.Path[3].Equal(p.root) {
		t.Errorf("path = %v", out.Path)
	}
	if out.PathsTried != 1 {
		t.Errorf("paths tried = %d", out.PathsTried)
	}
}

func TestBuildEmptyList(t *testing.T) {
	p := newPKI("empty")
	out := builderFor(p, reorderPolicy()).Build(nil, "x")
	if !errors.Is(out.Err, ErrEmptyList) {
		t.Errorf("err = %v", out.Err)
	}
}

func TestReorderOnOff(t *testing.T) {
	p := newPKI("reorder")
	reversed := []*certmodel.Certificate{p.leaf, p.root, p.ca2, p.ca1}

	if out := builderFor(p, reorderPolicy()).Build(reversed, ""); !out.OK() {
		t.Errorf("reordering client failed reversed chain: %v", out.Validation.Findings)
	}
	forward := Policy{Name: "fwd"}
	if out := builderFor(p, forward).Build(reversed, ""); out.OK() {
		t.Error("forward-only client validated a reversed chain")
	}
}

func TestForwardOnlySkipsIrrelevant(t *testing.T) {
	// Redundancy elimination holds even without reordering: irrelevant
	// certificates between the leaf and its issuer are skipped.
	p := newPKI("fwdskip")
	stranger := certmodel.SyntheticRoot("PB Stranger", base)
	list := []*certmodel.Certificate{p.leaf, stranger, p.ca1, p.ca2}
	out := builderFor(p, Policy{Name: "fwd"}).Build(list, "")
	if !out.OK() {
		t.Errorf("forward-only client failed to skip irrelevant cert: %v", out.Validation.Findings)
	}
}

func TestForwardOnlyCannotLookBack(t *testing.T) {
	// {E, I2, I1, R}: the issuer of I1 (=I2) sits before it.
	p := newPKI("fwdback")
	list := []*certmodel.Certificate{p.leaf, p.ca2, p.ca1, p.root}
	out := builderFor(p, Policy{Name: "fwd"}).Build(list, "")
	if out.OK() {
		t.Error("forward-only client should fail {E, I2, I1, R}")
	}
	// The partial path should have reached ca1 and stopped.
	if len(out.Path) != 2 || !out.Path[1].Equal(p.ca1) {
		t.Errorf("partial path = %v", out.Path)
	}
}

func TestInputListLimit(t *testing.T) {
	p := newPKI("inputlimit")
	list := []*certmodel.Certificate{p.leaf, p.ca1, p.ca2}
	pol := reorderPolicy()
	pol.MaxInputList = 2
	out := builderFor(p, pol).Build(list, "")
	if !errors.Is(out.Err, ErrInputListTooLong) {
		t.Errorf("err = %v, want input list limit", out.Err)
	}
	pol.MaxInputList = 3
	if out := builderFor(p, pol).Build(list, ""); !out.OK() {
		t.Error("list exactly at the limit should build")
	}
}

func TestSelfSignedLeaf(t *testing.T) {
	p := newPKI("ssleaf")
	ss := certmodel.SyntheticRoot("Self Signed Server", base)
	list := []*certmodel.Certificate{ss, p.leaf, p.ca1, p.ca2}

	refuse := reorderPolicy()
	out := builderFor(p, refuse).Build(list, "")
	if !errors.Is(out.Err, ErrSelfSignedLeaf) {
		t.Errorf("err = %v, want self-signed-leaf refusal", out.Err)
	}

	allow := reorderPolicy()
	allow.AllowSelfSignedLeaf = true
	out = builderFor(p, allow).Build(list, "")
	if out.Err != nil {
		t.Fatalf("allowing policy refused: %v", out.Err)
	}
	if len(out.Path) != 1 || !out.Path[0].Equal(ss) {
		t.Errorf("path = %v, want just the self-signed leaf", out.Path)
	}
	if out.Validation.OK {
		t.Error("untrusted self-signed leaf should not validate")
	}
}

func TestBacktrackingRecovers(t *testing.T) {
	// Two candidate issuers for ca1's subject: a decoy sharing the DN and
	// key but expired, presented first; the good one second.
	p := newPKI("bt")
	decoy := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: p.ca1.Subject, Issuer: p.ca2.Subject, Serial: "decoy",
		NotBefore: base.AddDate(-3, 0, 0), NotAfter: base.AddDate(-2, 0, 0),
		Key: certmodel.KeyOf(p.ca1), SignedBy: certmodel.KeyOf(p.ca2),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
	})
	list := []*certmodel.Certificate{p.leaf, decoy, p.ca1, p.ca2}

	plain := Policy{Name: "plain", Reorder: true, EliminateDuplicates: true}
	out := builderFor(p, plain).Build(list, "")
	if out.OK() {
		t.Fatal("no-priorities, no-backtracking client should pick the expired decoy and fail")
	}
	if out.PathsTried != 1 {
		t.Errorf("paths tried = %d, want 1", out.PathsTried)
	}

	bt := plain
	bt.Backtrack = true
	out = builderFor(p, bt).Build(list, "")
	if !out.OK() {
		t.Fatalf("backtracking client failed: %v", out.Validation.Findings)
	}
	if out.PathsTried < 2 {
		t.Errorf("paths tried = %d, want >= 2", out.PathsTried)
	}
}

func TestBacktrackingAttemptBudget(t *testing.T) {
	// Many same-subject expired decoys; a tiny attempt budget gives up
	// before reaching the good candidate.
	p := newPKI("btbudget")
	var list []*certmodel.Certificate
	list = append(list, p.leaf)
	for i := 0; i < 6; i++ {
		decoy := certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: p.ca1.Subject, Issuer: p.ca2.Subject, Serial: string(rune('a' + i)),
			NotBefore: base.AddDate(-3, 0, 0), NotAfter: base.AddDate(-2, 0, 0),
			Key: certmodel.KeyOf(p.ca1), SignedBy: certmodel.KeyOf(p.ca2),
			IsCA: true, BasicConstraintsValid: true,
		})
		list = append(list, decoy)
	}
	list = append(list, p.ca1, p.ca2)

	pol := Policy{Name: "budget", Reorder: true, EliminateDuplicates: true, Backtrack: true, MaxAttempts: 3}
	out := builderFor(p, pol).Build(list, "")
	if out.OK() {
		t.Error("3-attempt budget should not reach the valid candidate behind 6 decoys")
	}
	if out.PathsTried > 3 {
		t.Errorf("paths tried = %d, budget was 3", out.PathsTried)
	}

	pol.MaxAttempts = 0 // default (32) is plenty
	if out := builderFor(p, pol).Build(list, ""); !out.OK() {
		t.Error("default budget should recover")
	}
}

func TestPartialValidationFiltersCandidates(t *testing.T) {
	// A same-DN candidate whose signature does not verify: partial
	// validation drops it during collection, so even without backtracking
	// the good candidate is used.
	p := newPKI("pv")
	forged := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: p.ca1.Subject, Issuer: p.ca2.Subject, Serial: "forged",
		NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("pv-forged"), SignedBy: certmodel.NewSyntheticKey("pv-wrong-signer"),
		IsCA: true, BasicConstraintsValid: true,
	})
	list := []*certmodel.Certificate{p.leaf, forged, p.ca1, p.ca2}

	noPV := Policy{Name: "nopv", Reorder: true}
	if out := builderFor(p, noPV).Build(list, ""); out.OK() {
		t.Error("without partial validation the forged candidate should poison the path")
	}
	pv := Policy{Name: "pv", Reorder: true, PartialValidation: true}
	if out := builderFor(p, pv).Build(list, ""); !out.OK() {
		t.Errorf("partial validation should skip the forged candidate: %v", out.Validation.Findings)
	}
}

func TestAIAFallback(t *testing.T) {
	root := certmodel.SyntheticRoot("PB AIA Root", base)
	ca2 := certmodel.SyntheticIntermediate("PB AIA CA2", root, base)
	const uri = "http://repo.pb.example/ca2.der"
	ca1 := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "PB AIA CA1"}, Issuer: ca2.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("pb-aia-ca1"), SignedBy: certmodel.KeyOf(ca2),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
		AIAIssuerURLs: []string{uri},
	})
	leaf := certmodel.SyntheticLeaf("pb-aia.example", "1", ca1, base, base.AddDate(1, 0, 0))
	repo := aia.NewRepository()
	repo.Put(uri, ca2)
	roots := rootstore.NewWith("pb-aia", root)

	pol := reorderPolicy()
	pol.AIA = true
	b := &Builder{Policy: pol, Roots: roots, Fetcher: repo, Now: base.AddDate(0, 1, 0)}
	out := b.Build([]*certmodel.Certificate{leaf, ca1}, "pb-aia.example")
	if !out.OK() {
		t.Fatalf("AIA build failed: %v %v", out.Err, out.Validation.Findings)
	}
	if out.AIAFetches == 0 {
		t.Error("no AIA fetches recorded")
	}

	// AIA is a fallback: when the issuer is in the list, no fetch happens.
	out = b.Build([]*certmodel.Certificate{leaf, ca1, ca2}, "pb-aia.example")
	if !out.OK() || out.AIAFetches != 0 {
		t.Errorf("AIA used despite local candidate (fetches=%d)", out.AIAFetches)
	}

	// Without the policy bit the fetcher must stay untouched.
	pol.AIA = false
	b2 := &Builder{Policy: pol, Roots: roots, Fetcher: repo, Now: base.AddDate(0, 1, 0)}
	if out := b2.Build([]*certmodel.Certificate{leaf, ca1}, ""); out.OK() {
		t.Error("AIA-less policy should fail the incomplete chain")
	}
}

func TestCacheUseAndPopulation(t *testing.T) {
	p := newPKI("cache")
	pol := reorderPolicy()
	pol.UseCache = true

	// Incomplete chain, empty cache: fail.
	cold := rootstore.New("cold")
	b := &Builder{Policy: pol, Roots: p.roots, Cache: cold, Now: base.AddDate(0, 1, 0)}
	if out := b.Build([]*certmodel.Certificate{p.leaf, p.ca1}, ""); out.OK() {
		t.Fatal("empty cache should not complete the chain")
	}
	// A validated full chain leaves the cache as it was.
	if out := b.Build([]*certmodel.Certificate{p.leaf, p.ca1, p.ca2}, ""); !out.OK() {
		t.Fatal("full chain failed")
	}
	if cold.Len() != 0 {
		t.Error("a build wrote its cache")
	}

	// A preload holding the missing intermediate completes the chain and
	// stays unchanged.
	preload := rootstore.New("preload")
	preload.Add(p.ca2)
	b = &Builder{Policy: pol, Roots: p.roots, Cache: preload, Now: base.AddDate(0, 1, 0)}
	if out := b.Build([]*certmodel.Certificate{p.leaf, p.ca1}, ""); !out.OK() {
		t.Error("preload should complete the chain")
	}
	if preload.Len() != 1 {
		t.Errorf("preload holds %d certificates after a build, want 1", preload.Len())
	}
}

func TestMaxPathLenCountsImplicitAnchor(t *testing.T) {
	p := newPKI("maxlen")
	full := []*certmodel.Certificate{p.leaf, p.ca1, p.ca2, p.root}
	noRoot := []*certmodel.Certificate{p.leaf, p.ca1, p.ca2}

	pol := reorderPolicy()
	pol.MaxPathLen = 4
	if out := builderFor(p, pol).Build(full, ""); !out.OK() {
		t.Error("4-cert chain should fit a limit of 4")
	}
	if out := builderFor(p, pol).Build(noRoot, ""); !out.OK() {
		t.Error("3-cert list with implicit anchor (total 4) should fit a limit of 4")
	}
	pol.MaxPathLen = 3
	if out := builderFor(p, pol).Build(full, ""); out.OK() {
		t.Error("4-cert chain should exceed a limit of 3")
	}
	if out := builderFor(p, pol).Build(noRoot, ""); out.OK() {
		t.Error("implicit anchor must count: effective 4 > 3")
	}
}

func TestDuplicateEliminationCost(t *testing.T) {
	p := newPKI("dupcost")
	list := []*certmodel.Certificate{p.leaf}
	for i := 0; i < 10; i++ {
		list = append(list, p.ca1, p.ca2)
	}
	with := reorderPolicy()
	without := reorderPolicy()
	without.EliminateDuplicates = false

	outWith := builderFor(p, with).Build(list, "")
	outWithout := builderFor(p, without).Build(list, "")
	if !outWith.OK() || !outWithout.OK() {
		t.Fatal("both variants should validate")
	}
	if outWithout.CandidatesConsidered <= outWith.CandidatesConsidered {
		t.Errorf("duplicate scanning cost not visible: %d <= %d",
			outWithout.CandidatesConsidered, outWith.CandidatesConsidered)
	}
}

func TestCrossSignCycleTerminates(t *testing.T) {
	// Mutually cross-signed CAs (CVE-2024-0567 shape): construction must
	// terminate and report a failure rather than loop.
	keyA, keyB := certmodel.NewSyntheticKey("pb-cyc-a"), certmodel.NewSyntheticKey("pb-cyc-b")
	nameA, nameB := certmodel.Name{CommonName: "Cyc A"}, certmodel.Name{CommonName: "Cyc B"}
	mk := func(sub, iss certmodel.Name, key, signer certmodel.SyntheticKey, serial string) *certmodel.Certificate {
		return certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: sub, Issuer: iss, Serial: serial,
			NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: key, SignedBy: signer, IsCA: true, BasicConstraintsValid: true,
		})
	}
	aByB := mk(nameA, nameB, keyA, keyB, "ab")
	bByA := mk(nameB, nameA, keyB, keyA, "ba")
	leaf := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "cyc.example"}, Issuer: nameA,
		Serial: "leaf", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("pb-cyc-leaf"), SignedBy: keyA,
		DNSNames: []string{"cyc.example"},
	})
	pol := reorderPolicy()
	pol.Backtrack = true
	b := &Builder{Policy: pol, Roots: rootstore.New("empty"), Now: base}
	out := b.Build([]*certmodel.Certificate{leaf, aByB, bByA}, "cyc.example")
	if out.OK() {
		t.Error("untrusted cycle should not validate")
	}
	if len(out.Path) == 0 {
		t.Error("partial path expected")
	}
}
