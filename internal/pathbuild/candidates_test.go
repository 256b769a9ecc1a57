package pathbuild

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/rootstore"
)

func TestKIDStatus(t *testing.T) {
	root := certmodel.SyntheticRoot("KS Root", base)
	child := certmodel.SyntheticIntermediate("KS Child", root, base)

	if got := kidStatus(root, child); got != 0 {
		t.Errorf("matching KID status = %d, want 0", got)
	}
	noSKID := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: root.Subject, Issuer: root.Subject, Serial: "noskid",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.KeyOf(root), SignedBy: certmodel.KeyOf(root),
		OmitSKID: true,
	})
	if got := kidStatus(noSKID, child); got != 1 {
		t.Errorf("absent-SKID status = %d, want 1", got)
	}
	wrong := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: root.Subject, Issuer: root.Subject, Serial: "wrongskid",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("ks-other"), SignedBy: certmodel.KeyOf(root),
	})
	if got := kidStatus(wrong, child); got != 2 {
		t.Errorf("mismatch status = %d, want 2", got)
	}
	noAKID := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "KS NoAKID"}, Issuer: root.Subject,
		Serial: "noakid", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("ks-noakid"), SignedBy: certmodel.KeyOf(root),
		OmitAKID: true,
	})
	if got := kidStatus(root, noAKID); got != 1 {
		t.Errorf("absent-AKID status = %d, want 1", got)
	}
}

// randomKey draws a rankKey from small component ranges, so draws often
// tie on some components and differ on later ones.
func randomKey(r *rand.Rand) rankKey {
	return keyOf(r.Intn(3), r.Intn(2), r.Intn(2), r.Intn(2), r.Intn(2),
		int64(r.Intn(5)), int64(r.Intn(5)), r.Intn(8))
}

// keyOf packs the components of a reference rank into a rankKey.
func keyOf(kid, keyUsage, basic, trusted, invalid int, recency, duration int64, pos int) rankKey {
	return rankKey{
		flags:    uint32(kid<<4 | keyUsage<<3 | basic<<2 | trusted<<1 | invalid),
		recency:  recency,
		duration: duration,
		pos:      int32(pos),
	}
}

// TestQuickRankStrictWeakOrder: rankKey.less must be a strict weak order —
// irreflexive, asymmetric and transitive, with transitive equivalence
// (neither less) — or the insertion sort's result would depend on the
// order candidates were collected in beyond ties. It must also order
// packed keys as the reference rank orders their components.
func TestQuickRankStrictWeakOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomKey(r), randomKey(r), randomKey(r)
		if a.less(&a) {
			return false
		}
		if a.less(&b) && b.less(&a) {
			return false
		}
		if a.less(&b) && b.less(&c) && !a.less(&c) {
			return false
		}
		equiv := func(x, y rankKey) bool { return !x.less(&y) && !y.less(&x) }
		if equiv(a, b) && equiv(b, c) && !equiv(a, c) {
			return false
		}
		return a.less(&b) == refRank(a).less(refRank(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refRank unpacks a rankKey into the reference rank.
func refRank(k rankKey) rank {
	return rank{
		kid: int(k.flags >> 4), keyUsage: int(k.flags >> 3 & 1), basic: int(k.flags >> 2 & 1),
		trusted:  int(k.flags >> 1 & 1),
		validity: validityKey{invalid: int(k.flags & 1), recency: k.recency, duration: k.duration},
		pos:      int(k.pos),
	}
}

func TestRankPrecedence(t *testing.T) {
	// Each component outranks every component below it; position is the
	// final tiebreak.
	better := keyOf(0, 1, 1, 1, 1, 9, 9, 9)
	worse := keyOf(1, 0, 0, 0, 0, 0, 0, 0)
	if !better.less(&worse) {
		t.Error("KID rank must dominate")
	}
	for i, pair := range [][2]rankKey{
		{keyOf(0, 0, 1, 1, 1, 9, 9, 9), keyOf(0, 1, 0, 0, 0, 0, 0, 0)},
		{keyOf(0, 0, 0, 1, 1, 9, 9, 9), keyOf(0, 0, 1, 0, 0, 0, 0, 0)},
		{keyOf(0, 0, 0, 0, 1, 9, 9, 9), keyOf(0, 0, 0, 1, 0, 0, 0, 0)},
		{keyOf(0, 0, 0, 0, 0, 9, 9, 9), keyOf(0, 0, 0, 0, 1, 0, 0, 0)},
		{keyOf(0, 0, 0, 0, 0, -1, 9, 9), keyOf(0, 0, 0, 0, 0, 0, 0, 0)},
		{keyOf(0, 0, 0, 0, 0, 0, -1, 9), keyOf(0, 0, 0, 0, 0, 0, 0, 0)},
	} {
		if !pair[0].less(&pair[1]) || pair[1].less(&pair[0]) {
			t.Errorf("component %d does not outrank the components below it", i+1)
		}
	}
	a := keyOf(0, 0, 0, 0, 0, 0, 0, 1)
	b := keyOf(0, 0, 0, 0, 0, 0, 0, 2)
	if !a.less(&b) || b.less(&a) {
		t.Error("position tiebreak wrong")
	}
}

func TestCandidateSourcePriority(t *testing.T) {
	// A certificate reachable both from the list and the trust store must
	// be treated as a terminal trust anchor (store wins the dedup).
	root := certmodel.SyntheticRoot("SrcPrio Root", base)
	leaf := certmodel.SyntheticLeaf("srcprio.example", "1", root, base, base.AddDate(1, 0, 0))
	b := &Builder{
		Policy: Policy{Reorder: true},
		Roots:  rootstore.NewWith("srcprio", root),
		Now:    base,
	}
	out := b.Build([]*certmodel.Certificate{leaf, root}, "srcprio.example")
	if !out.OK() {
		t.Fatalf("build failed: %v", out.Validation.Findings)
	}
	if len(out.Path) != 2 {
		t.Errorf("path length = %d", len(out.Path))
	}
}

func TestValidityRankingVP2PrefersLongest(t *testing.T) {
	// Two valid candidates with the same NotBefore: VP2's tiebreak is the
	// longer validity.
	root := certmodel.SyntheticRoot("VP2 Root", base)
	ca := certmodel.SyntheticIntermediate("VP2 CA", root, base)
	longer := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: ca.Subject, Issuer: root.Subject, Serial: "longer",
		NotBefore: ca.NotBefore, NotAfter: ca.NotAfter.AddDate(5, 0, 0),
		Key: certmodel.KeyOf(ca), SignedBy: certmodel.KeyOf(root),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
	})
	leaf := certmodel.SyntheticLeaf("vp2.example", "1", ca, base, base.AddDate(1, 0, 0))

	pol := Policy{Reorder: true, EliminateDuplicates: true, ValidityPref: ValidityMostRecent}
	b := &Builder{Policy: pol, Roots: rootstore.NewWith("vp2", root), Now: base.AddDate(0, 1, 0)}
	out := b.Build([]*certmodel.Certificate{leaf, ca, longer}, "vp2.example")
	if !out.OK() {
		t.Fatal("build failed")
	}
	if !out.Path[1].Equal(longer) {
		t.Errorf("VP2 chose %s, want the longer-validity candidate", out.Path[1].SerialNumber)
	}
}

func TestPolicyStringForms(t *testing.T) {
	if ValidityNone.String() != "-" || ValidityFirstValid.String() != "VP1" || ValidityMostRecent.String() != "VP2" {
		t.Error("validity policy strings wrong")
	}
	if KIDNone.String() != "-" || KIDMatchOrAbsentFirst.String() != "KP1" || KIDMatchFirst.String() != "KP2" {
		t.Error("KID policy strings wrong")
	}
	if ValidityPolicy(9).String() == "" || KIDPolicy(9).String() == "" {
		t.Error("unknown policies must still render")
	}
}
