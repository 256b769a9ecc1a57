package certmodel_test

import (
	"sort"
	"sync"
	"testing"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
)

// The tests in this file read the process-wide signature counters, so none
// of them (and no other test in this package) may run in parallel.

var (
	fixturesOnce sync.Once
	fixtures     []*certmodel.Certificate
	fixturesErr  error
)

// realFixtures returns every distinct real certificate of the client
// capability scenarios — cross-signs, KID mismatches, validity and
// KeyUsage variants, self-signed leaves — plus a rogue issuer that copies
// the KID scenario CA's subject and SKID but holds another key, so only the
// signature tells it apart.
func realFixtures(t *testing.T) []*certmodel.Certificate {
	t.Helper()
	fixturesOnce.Do(func() {
		set, err := clients.NewScenarioSet()
		if err != nil {
			fixturesErr = err
			return
		}
		seen := map[certmodel.FP]bool{}
		add := func(c *certmodel.Certificate) {
			if c != nil && !seen[c.Fingerprint()] {
				seen[c.Fingerprint()] = true
				fixtures = append(fixtures, c)
			}
		}
		for _, sc := range []*clients.Scenario{
			set.OrderReorganization, set.RedundancyElimination, set.AIACompletion, set.Validity,
			set.KID, set.KeyUsage, set.BasicConstraints, set.SelfSigned,
		} {
			for _, c := range sc.List {
				add(c)
			}
			labels := make([]string, 0, len(sc.Labels))
			for l := range sc.Labels {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				add(sc.Labels[l])
			}
		}
		ca := set.KID.Labels["I"]
		rogue, err := certgen.NewRoot("Rogue", certgen.WithSubject(ca.Subject), certgen.WithSKID(ca.SubjectKeyID))
		if err != nil {
			fixturesErr = err
			return
		}
		add(rogue.Cert)
	})
	if fixturesErr != nil {
		t.Fatal(fixturesErr)
	}
	return fixtures
}

type certPair struct{ child, parent *certmodel.Certificate }

// allPairs is every ordered pair of certs, self-pairs included.
func allPairs(certs []*certmodel.Certificate) []certPair {
	pairs := make([]certPair, 0, len(certs)*len(certs))
	for _, child := range certs {
		for _, parent := range certs {
			pairs = append(pairs, certPair{child, parent})
		}
	}
	return pairs
}

// direct is the unmemoized check the memo must reproduce.
func direct(p certPair) bool {
	c := p.child.X509
	return p.parent.X509.CheckSignature(c.SignatureAlgorithm, c.RawTBSCertificate, c.Signature) == nil
}

// TestSigMemoMatchesDirectCheck: over every ordered fixture pair the
// memoized answer equals a direct CheckSignature, on the first call and on
// the repeat, and the repeat is a memo hit that verifies nothing.
func TestSigMemoMatchesDirectCheck(t *testing.T) {
	certs := realFixtures(t)
	verified := 0
	for _, p := range allPairs(certs) {
		want := direct(p)
		if got := p.child.SignatureVerifiedBy(p.parent); got != want {
			t.Errorf("first call %s <- %s = %v, direct check says %v", p.child.Subject, p.parent.Subject, got, want)
		}
		v0, h0 := certmodel.SigCounts()
		if got := p.child.SignatureVerifiedBy(p.parent); got != want {
			t.Errorf("repeat %s <- %s = %v, direct check says %v", p.child.Subject, p.parent.Subject, got, want)
		}
		if v1, h1 := certmodel.SigCounts(); v1 != v0 || h1 != h0+1 {
			t.Errorf("repeat %s <- %s: verifies +%d, hits +%d; want one hit and no verification",
				p.child.Subject, p.parent.Subject, v1-v0, h1-h0)
		}
		if want {
			verified++
		}
	}
	if verified == 0 || verified == len(certs)*len(certs) {
		t.Fatalf("%d of %d pairs verify: fixtures lack one of the outcomes", verified, len(certs)*len(certs))
	}
}

// collidingPairs returns up to n couples of fixture pairs that share a
// memo slot. Some always exist: the fixtures make over a thousand pairs
// for 4,096 slots.
func collidingPairs(t *testing.T, n int) [][2]certPair {
	t.Helper()
	bySlot := map[uint64][]certPair{}
	var slots []uint64
	for _, p := range allPairs(realFixtures(t)) {
		s := certmodel.SigMemoSlot(p.child, p.parent)
		if len(bySlot[s]) == 0 {
			slots = append(slots, s)
		}
		bySlot[s] = append(bySlot[s], p)
	}
	var out [][2]certPair
	for _, s := range slots {
		if pairs := bySlot[s]; len(pairs) >= 2 && len(out) < n {
			out = append(out, [2]certPair{pairs[0], pairs[1]})
		}
	}
	if len(out) == 0 {
		t.Fatal("no two fixture pairs share a memo slot")
	}
	return out
}

// TestSigMemoCollisionOverwrite: when a colliding pair overwrites a slot,
// the evicted pair is verified again on its next check and still answers
// exactly as the direct check does.
func TestSigMemoCollisionOverwrite(t *testing.T) {
	for _, c := range collidingPairs(t, 16) {
		a, b := c[0], c[1]
		b.child.SignatureVerifiedBy(b.parent) // b holds the slot
		for _, p := range []certPair{a, b, a} {
			v0, _ := certmodel.SigCounts()
			got := p.child.SignatureVerifiedBy(p.parent)
			v1, _ := certmodel.SigCounts()
			if want := direct(p); got != want {
				t.Fatalf("%s <- %s = %v after an overwrite, direct check says %v",
					p.child.Subject, p.parent.Subject, got, want)
			}
			if v1 != v0+1 {
				t.Fatalf("%s <- %s answered without verifying, but its colliding pair held the slot",
					p.child.Subject, p.parent.Subject)
			}
		}
	}
}

// oldIssued and oldIssuedStrict are the signature-first formulas Issued and
// IssuedStrict replaced; the reordering must keep their truth tables.
func oldIssued(parent, child *certmodel.Certificate) bool {
	ev := certmodel.CheckIssuance(parent, child)
	return ev.Signature && (ev.NameMatch || ev.KIDComparable && ev.KIDMatch)
}

func oldIssuedStrict(parent, child *certmodel.Certificate) bool {
	ev := certmodel.CheckIssuance(parent, child)
	return ev.Signature && ev.NameMatch && !(ev.KIDComparable && !ev.KIDMatch)
}

func checkIssuanceEquivalence(t *testing.T, pairs []certPair) (issued int) {
	t.Helper()
	for _, p := range pairs {
		if got, want := certmodel.Issued(p.parent, p.child), oldIssued(p.parent, p.child); got != want {
			t.Errorf("Issued(%s, %s) = %v, signature-first formula says %v", p.parent.Subject, p.child.Subject, got, want)
		}
		if got, want := certmodel.IssuedStrict(p.parent, p.child), oldIssuedStrict(p.parent, p.child); got != want {
			t.Errorf("IssuedStrict(%s, %s) = %v, signature-first formula says %v", p.parent.Subject, p.child.Subject, got, want)
		}
		if oldIssued(p.parent, p.child) {
			issued++
		}
	}
	return issued
}

// TestIssuedCheapCriteriaFirst: Issued and IssuedStrict keep the truth
// table of the signature-first formula over the real fixtures, a synthetic
// population sample and mixed back ends — and a pair no name criterion
// links costs no signature check at all.
func TestIssuedCheapCriteriaFirst(t *testing.T) {
	reals := realFixtures(t)
	if checkIssuanceEquivalence(t, allPairs(reals)) == 0 {
		t.Error("no real fixture pair is an issuance")
	}

	pop := population.Generate(population.Config{Size: 120, Seed: 11})
	seen := map[certmodel.FP]bool{}
	var synth []*certmodel.Certificate
	for _, d := range pop.Domains {
		for _, c := range d.List {
			if !seen[c.Fingerprint()] {
				seen[c.Fingerprint()] = true
				synth = append(synth, c)
			}
		}
	}
	if len(synth) > 150 {
		synth = synth[:150]
	}
	if checkIssuanceEquivalence(t, allPairs(synth)) == 0 {
		t.Error("no synthetic pair is an issuance")
	}

	var mixed []certPair
	for i := 0; i < 10 && i < len(reals) && i < len(synth); i++ {
		mixed = append(mixed, certPair{reals[i], synth[i]}, certPair{synth[i], reals[i]})
	}
	checkIssuanceEquivalence(t, mixed)

	unlinked := 0
	for _, p := range allPairs(reals) {
		if certmodel.NameIndicatesIssuance(p.parent, p.child) {
			continue
		}
		v0, h0 := certmodel.SigCounts()
		if certmodel.Issued(p.parent, p.child) || certmodel.IssuedStrict(p.parent, p.child) {
			t.Fatalf("%s issued %s although no name criterion links them", p.parent.Subject, p.child.Subject)
		}
		if v1, h1 := certmodel.SigCounts(); v1 != v0 || h1 != h0 {
			t.Fatalf("unlinked pair %s <- %s reached the signature check", p.child.Subject, p.parent.Subject)
		}
		unlinked++
	}
	if unlinked == 0 {
		t.Fatal("every fixture pair is name-linked")
	}
}

// TestSigMemoConcurrent hammers overlapping pairs, colliding ones included,
// from many goroutines; every answer must equal the direct check (and the
// race detector must stay quiet under `go test -race`).
func TestSigMemoConcurrent(t *testing.T) {
	reals := realFixtures(t)
	if len(reals) > 14 {
		reals = reals[:14]
	}
	pairs := allPairs(reals)
	for _, c := range collidingPairs(t, 8) {
		pairs = append(pairs, c[0], c[1])
	}
	want := make([]bool, len(pairs))
	for i, p := range pairs {
		want[i] = direct(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for k := range pairs {
					i := (k*(g+1) + round) % len(pairs)
					if got := pairs[i].child.SignatureVerifiedBy(pairs[i].parent); got != want[i] {
						t.Errorf("goroutine %d: pair %d = %v, want %v", g, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSigCountersPublished: the counters reach a registry under their
// published names through obs.RecordProcess, and synthetic checks — the
// fuzzer's and differential harness's hot path — move neither.
func TestSigCountersPublished(t *testing.T) {
	reals := realFixtures(t)
	reals[0].SignatureVerifiedBy(reals[0])
	root := certmodel.SyntheticRoot("Counter Root", certgen.Reference)
	v0, h0 := certmodel.SigCounts()
	for i := 0; i < 100; i++ {
		root.SignatureVerifiedBy(root)
	}
	if v1, h1 := certmodel.SigCounts(); v1 != v0 || h1 != h0 {
		t.Errorf("synthetic checks moved the counters: verifies +%d, hits +%d", v1-v0, h1-h0)
	}
	reg := obs.NewRegistry()
	reg.RecordProcess()
	c := reg.Snapshot().Counters
	if c["certmodel.sig_verifies"] != v0 || c["certmodel.sig_memo_hits"] != h0 {
		t.Errorf("published verifies=%d hits=%d, counters read %d and %d",
			c["certmodel.sig_verifies"], c["certmodel.sig_memo_hits"], v0, h0)
	}
	if v0 == 0 {
		t.Error("no real verification counted")
	}
}
