package validate

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/revocation"
	"chainchaos/internal/rootstore"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	root, ca2, ca1, leaf *certmodel.Certificate
	roots                *rootstore.Store
	now                  time.Time
}

func newFixture() *fixture {
	root := certmodel.SyntheticRoot("Val Root", base)
	ca2 := certmodel.SyntheticIntermediate("Val CA2", root, base)
	ca1 := certmodel.SyntheticIntermediate("Val CA1", ca2, base)
	leaf := certmodel.SyntheticLeaf("val.example", "1", ca1, base, base.AddDate(1, 0, 0))
	return &fixture{root, ca2, ca1, leaf, rootstore.NewWith("val", root), base.AddDate(0, 1, 0)}
}

func (f *fixture) opts() Options {
	return Options{Roots: f.roots, Now: f.now, Domain: "val.example"}
}

func (f *fixture) path() []*certmodel.Certificate {
	return []*certmodel.Certificate{f.leaf, f.ca1, f.ca2, f.root}
}

func TestValidPath(t *testing.T) {
	f := newFixture()
	res := Path(f.path(), f.opts())
	if !res.OK {
		t.Fatalf("valid path rejected: %v", res.Findings)
	}
	// Root omitted but issuer in store: still anchored.
	res = Path(f.path()[:3], f.opts())
	if !res.OK {
		t.Fatalf("root-omitted path rejected: %v", res.Findings)
	}
}

func TestEmptyPath(t *testing.T) {
	f := newFixture()
	res := Path(nil, f.opts())
	if res.OK || !res.Has(ProblemEmptyPath) {
		t.Errorf("empty path result = %+v", res)
	}
}

func TestHostnameMismatch(t *testing.T) {
	f := newFixture()
	opts := f.opts()
	opts.Domain = "other.example"
	res := Path(f.path(), opts)
	if res.OK || !res.Has(ProblemHostnameMismatch) {
		t.Errorf("hostname mismatch not flagged: %+v", res)
	}
	opts.Domain = "" // disabled
	if res := Path(f.path(), opts); !res.OK {
		t.Error("empty domain should skip hostname checks")
	}
}

func TestExpiryWindows(t *testing.T) {
	f := newFixture()
	opts := f.opts()
	opts.Now = base.AddDate(2, 0, 0) // leaf expired
	res := Path(f.path(), opts)
	if res.OK || !res.Has(ProblemExpired) {
		t.Errorf("expired leaf not flagged: %+v", res)
	}
	opts.Now = base.AddDate(-20, 0, 0)
	res = Path(f.path(), opts)
	if res.OK || !res.Has(ProblemNotYetValid) {
		t.Errorf("not-yet-valid not flagged: %+v", res)
	}
	opts.Now = time.Time{} // zero disables validity checks
	if res := Path(f.path(), opts); !res.OK {
		t.Errorf("zero Now should disable validity: %+v", res.Findings)
	}
}

func TestNotCA(t *testing.T) {
	f := newFixture()
	otherLeaf := certmodel.SyntheticLeaf("other.example", "2", f.ca1, base, base.AddDate(1, 0, 0))
	// Splice a non-CA certificate into the issuer position (signature will
	// also fail; both findings must surface).
	path := []*certmodel.Certificate{f.leaf, otherLeaf, f.ca2, f.root}
	res := Path(path, f.opts())
	if res.OK || !res.Has(ProblemNotCA) || !res.Has(ProblemBadSignature) {
		t.Errorf("non-CA issuer findings = %+v", res.Findings)
	}
}

func TestPathLenConstraint(t *testing.T) {
	root := certmodel.SyntheticRoot("PL Root", base)
	mk := func(cn string, parent *certmodel.Certificate, pathLen int, hasPL bool) *certmodel.Certificate {
		return certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: certmodel.Name{CommonName: cn}, Issuer: parent.Subject,
			Serial: cn, NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: certmodel.NewSyntheticKey(cn), SignedBy: certmodel.KeyOf(parent),
			IsCA: true, BasicConstraintsValid: true,
			KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
			MaxPathLen: pathLen, HasPathLen: hasPL,
		})
	}
	// ca2 has pathLen 0 but one intermediate (ca1) hangs below it.
	ca2 := mk("PL CA2", root, 0, true)
	ca1 := mk("PL CA1", ca2, 0, true)
	leaf := certmodel.SyntheticLeaf("pl.example", "1", ca1, base, base.AddDate(1, 0, 0))
	roots := rootstore.NewWith("pl", root)

	res := Path([]*certmodel.Certificate{leaf, ca1, ca2, root}, Options{Roots: roots, Now: base})
	if res.OK || !res.Has(ProblemPathLenExceeded) {
		t.Errorf("pathLen violation not flagged: %+v", res.Findings)
	}
	// Direct issuance from ca2 (pathLen 0 allows zero intermediates below).
	leaf2 := certmodel.SyntheticLeaf("pl2.example", "2", ca2, base, base.AddDate(1, 0, 0))
	res = Path([]*certmodel.Certificate{leaf2, ca2, root}, Options{Roots: roots, Now: base})
	if !res.OK {
		t.Errorf("pathLen 0 with no intermediates below should pass: %+v", res.Findings)
	}
}

func TestBadKeyUsage(t *testing.T) {
	root := certmodel.SyntheticRoot("KU Root", base)
	badCA := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "KU Bad CA"}, Issuer: root.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("ku-bad"), SignedBy: certmodel.KeyOf(root),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageDigitalSignature, HasKeyUsage: true,
	})
	leaf := certmodel.SyntheticLeaf("ku.example", "1", badCA, base, base.AddDate(1, 0, 0))
	res := Path([]*certmodel.Certificate{leaf, badCA, root},
		Options{Roots: rootstore.NewWith("ku", root), Now: base})
	if res.OK || !res.Has(ProblemBadKeyUsage) {
		t.Errorf("bad KeyUsage not flagged: %+v", res.Findings)
	}
}

func TestUntrustedAnchor(t *testing.T) {
	f := newFixture()
	res := Path(f.path(), Options{Roots: rootstore.New("empty"), Now: f.now, Domain: "val.example"})
	if res.OK || !res.Has(ProblemUntrusted) {
		t.Errorf("untrusted path accepted: %+v", res)
	}
	res = Path(f.path(), Options{Now: f.now}) // nil store
	if res.OK || !res.Has(ProblemUntrusted) {
		t.Error("nil store should never anchor")
	}
}

func TestFindingsAccumulate(t *testing.T) {
	// An expired chain with a hostname mismatch and no anchor: every
	// problem must surface, not just the first.
	f := newFixture()
	opts := Options{Roots: rootstore.New("empty"), Now: base.AddDate(3, 0, 0), Domain: "wrong.example"}
	res := Path(f.path(), opts)
	if len(res.Findings) < 3 {
		t.Errorf("findings = %v, want several", res.Findings)
	}
	if res.Findings[0].Problem != ProblemHostnameMismatch {
		t.Errorf("first problem = %v", res.Findings[0].Problem)
	}
}

func TestProblemAndFindingStrings(t *testing.T) {
	names := map[string]Problem{}
	for p := ProblemExpired; p <= ProblemDeprecatedCrypto; p++ {
		s := p.String()
		if s == "" || strings.HasPrefix(s, "problem(") {
			t.Errorf("problem %d renders %q", int(p), s)
		}
		if q, dup := names[s]; dup {
			t.Errorf("problems %d and %d both render %q", int(q), int(p), s)
		}
		names[s] = p
	}
	// A problem added after the last one covered above must extend the loop.
	if s := (ProblemDeprecatedCrypto + 1).String(); !strings.HasPrefix(s, "problem(") {
		t.Errorf("problem %d renders %q; cover it above", int(ProblemDeprecatedCrypto+1), s)
	}
	f := Finding{Index: 2, Problem: ProblemExpired, text: "x"}
	if !strings.Contains(f.String(), "cert[2]") {
		t.Errorf("finding string = %q", f)
	}
	f.Index = -1
	if strings.Contains(f.String(), "cert[") {
		t.Errorf("path-level finding string = %q", f)
	}
	// A finding that renders on read is no larger than the one that held
	// its text: two 32-bit fields, a pointer and one string.
	if size := unsafe.Sizeof(Finding{}); size > 32 {
		t.Errorf("Finding is %d bytes, want at most 32", size)
	}
}

// TestDetailsMatchFmt: every formatted Detail has the bytes fmt.Sprintf
// gives for its format, on names, serials and domains that need escaping.
func TestDetailsMatchFmt(t *testing.T) {
	caBName := certmodel.Name{CommonName: "CA \"B\" \\ ✓", Organization: "Org, \"Q\"\n", Country: "Ü"}
	caAName := certmodel.Name{CommonName: "CA 'A'\t\x01", Organization: "Org, \"Q\"\n"}
	caBKey := certmodel.NewSyntheticKey("detail ca B")
	caAKey := certmodel.NewSyntheticKey("detail ca A")
	caB := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: caBName, Issuer: certmodel.Name{CommonName: "Elsewhere"}, Serial: "b",
		NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: caBKey, SignedBy: certmodel.NewSyntheticKey("detail elsewhere"),
		IsCA: true, BasicConstraintsValid: true, HasPathLen: true, MaxPathLen: 0,
	})
	caA := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: caAName, Issuer: caBName, Serial: "0x\"7f\\",
		NotBefore: base.AddDate(2, 0, 0), NotAfter: base.AddDate(5, 0, 0),
		Key: caAKey, SignedBy: caBKey,
		BasicConstraintsValid: true,
		PermittedDNSDomains:   []string{"constrained.invalid"},
	})
	leaf := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "we\"ird\\ü\x7f.example"}, Issuer: caAName, Serial: "1",
		NotBefore: base, NotAfter: base.AddDate(0, 0, 1),
		Key: certmodel.NewSyntheticKey("detail leaf"), SignedBy: certmodel.NewSyntheticKey("detail stranger"),
		DNSNames: []string{"we\"ird\\ü\x7f.example"},
	})
	revoked := revocation.NewList()
	revoked.Revoke(caA)
	now := base.AddDate(1, 0, 0)
	domain := "other\".example "

	res := Path([]*certmodel.Certificate{leaf, caA, caB}, Options{Now: now, Domain: domain, Revocation: revoked})
	want := map[Problem]string{
		ProblemHostnameMismatch:        fmt.Sprintf("leaf %q does not match %q", leaf.Subject.CommonName, domain),
		ProblemExpired:                 fmt.Sprintf("notAfter %s", leaf.NotAfter.Format(time.RFC3339)),
		ProblemRevoked:                 fmt.Sprintf("serial %s revoked by %q", caA.SerialNumber, caA.Issuer),
		ProblemNotYetValid:             fmt.Sprintf("notBefore %s", caA.NotBefore.Format(time.RFC3339)),
		ProblemNotCA:                   fmt.Sprintf("%q is not a CA certificate", caA.Subject.CommonName),
		ProblemNameConstraintViolation: fmt.Sprintf("leaf names violate %q's name constraints", caA.Subject.CommonName),
		ProblemBadSignature:            fmt.Sprintf("%q does not verify %q", caA.Subject.CommonName, leaf.Subject.CommonName),
		ProblemPathLenExceeded:         fmt.Sprintf("pathLen %d but %d intermediates below", caB.MaxPathLen, 1),
		ProblemUntrusted:               fmt.Sprintf("path terminates at %q with no trust anchor", caB.Subject),
	}
	got := map[Problem]string{}
	for _, f := range res.Findings {
		if _, ok := want[f.Problem]; ok {
			got[f.Problem] = f.Detail()
		}
		checkFindingString(t, f)
	}
	for p, w := range want {
		if got[p] != w {
			t.Errorf("%s: Detail %q, want %q", p, got[p], w)
		}
	}

	// The fixed texts: a weakly signed leaf outside serverAuth under a CA
	// that can sign neither certificates nor for servers; the empty path;
	// and a builder's client limit.
	weakLeaf := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "weak.example"}, Issuer: caAName, Serial: "w",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("detail weak leaf"), SignedBy: caAKey,
		ExtKeyUsages: []certmodel.ExtKeyUsage{certmodel.EKUClientAuth}, WeakSignature: true,
	})
	clientCA := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: caAName, Issuer: caBName, Serial: "c",
		NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: caAKey, SignedBy: caBKey, IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageDigitalSignature, HasKeyUsage: true,
		ExtKeyUsages: []certmodel.ExtKeyUsage{certmodel.EKUClientAuth},
	})
	type at struct {
		index int32
		p     Problem
	}
	fixed := map[at]string{
		{0, ProblemBadEKU}:           "leaf EKU set excludes serverAuth",
		{0, ProblemDeprecatedCrypto}: "certificate signed with a deprecated algorithm",
		{1, ProblemBadKeyUsage}:      "KeyUsage lacks certSign",
		{1, ProblemBadEKU}:           "EKU set excludes serverAuth",
	}
	findings := Path([]*certmodel.Certificate{weakLeaf, clientCA}, Options{Now: now}).Findings
	findings = append(findings, Path(nil, Options{}).Findings...)
	fixed[at{-1, ProblemEmptyPath}] = "no certificates"
	findings = append(findings, ClientLimit(13))
	fixed[at{-1, ProblemPathLenExceeded}] = fmt.Sprintf("client limit %d", 13)
	seen := map[at]bool{}
	for _, f := range findings {
		k := at{f.Index, f.Problem}
		if w, ok := fixed[k]; ok {
			seen[k] = true
			if f.Detail() != w {
				t.Errorf("%s at %d: Detail %q, want %q", f.Problem, f.Index, f.Detail(), w)
			}
		}
		checkFindingString(t, f)
	}
	for k := range fixed {
		if !seen[k] {
			t.Errorf("no %s finding at %d", k.p, k.index)
		}
	}
}

// checkFindingString: a finding renders as fmt renders its fields.
func checkFindingString(t *testing.T, f Finding) {
	t.Helper()
	want := fmt.Sprintf("cert[%d]: %s: %s", f.Index, f.Problem, f.Detail())
	if f.Index < 0 {
		want = fmt.Sprintf("%s: %s", f.Problem, f.Detail())
	}
	if f.String() != want {
		t.Errorf("String %q, want %q", f.String(), want)
	}
}
