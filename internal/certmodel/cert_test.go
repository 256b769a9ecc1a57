package certmodel

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
	"time"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

func TestFingerprintStableAndCached(t *testing.T) {
	c := SyntheticRoot("FP Root", base)
	fp1 := c.Fingerprint()
	fp2 := c.Fingerprint()
	if fp1 != fp2 {
		t.Error("fingerprint not stable")
	}
	if fp1 != sha256.Sum256(c.Raw) {
		t.Error("fingerprint is not the SHA-256 of Raw")
	}
	other := SyntheticRoot("FP Root 2", base)
	if other.Fingerprint() == fp1 {
		t.Error("distinct certs share a fingerprint")
	}
}

// TestFingerprintConcurrentFirstUse: goroutines that touch a certificate's
// fingerprint for the first time together all read its digest — a
// synthetic certificate, a parsed one, and the one a shared CertMemo stores
// and hands out while the others race to parse the same block. Every
// certificate holds its fingerprint inline, so the race detector (CI runs
// this under -race) reports a digest read before it is written.
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	der := selfSignedDER(t, 7)
	bundle := pemOf(t, der)
	for round := 0; round < 50; round++ {
		synthetic := SyntheticRoot("Race Root", base.AddDate(0, 0, round))
		parsed, err := ParseDER(der)
		if err != nil {
			t.Fatal(err)
		}
		certs := []*Certificate{synthetic, parsed}
		want := []FP{sha256.Sum256(synthetic.Raw), sha256.Sum256(der)}
		var memo CertMemo
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i, c := range certs {
					if got := c.Fingerprint(); got != want[i] {
						t.Errorf("round %d, certificate %d: fingerprint %x, want %x", round, i, got, want[i])
					}
				}
				stored, err := memo.ParsePEMBundle(bundle)
				if err != nil {
					t.Error(err)
					return
				}
				if got := stored[0].Fingerprint(); got != want[1] {
					t.Errorf("round %d, memo: fingerprint %x, want %x", round, got, want[1])
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

func TestEqualSemantics(t *testing.T) {
	a := SyntheticRoot("Eq Root", base)
	b := SyntheticRoot("Eq Root", base) // same config => same bytes
	c := SyntheticRoot("Eq Root Other", base)
	if !a.Equal(b) {
		t.Error("identical configs should be bit-for-bit equal")
	}
	if a.Equal(c) {
		t.Error("different subjects compare equal")
	}
	if a.Equal(nil) || (*Certificate)(nil).Equal(a) {
		t.Error("nil comparisons should be false")
	}
	if !a.Equal(a) {
		t.Error("self comparison should be true")
	}
}

func TestSelfSigned(t *testing.T) {
	root := SyntheticRoot("SS Root", base)
	if !root.SelfSigned() {
		t.Error("root should be self-signed")
	}
	inter := SyntheticIntermediate("SS CA", root, base)
	if inter.SelfSigned() {
		t.Error("intermediate should not be self-signed")
	}
	// Same subject as issuer but signed by a different key: self-issued
	// but NOT self-signed.
	otherKey := NewSyntheticKey("SS other key")
	fake := NewSynthetic(SyntheticConfig{
		Subject: root.Subject, Issuer: root.Subject, Serial: "fake",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: NewSyntheticKey("SS inner"), SignedBy: otherKey,
	})
	if fake.SelfSigned() {
		t.Error("self-issued cert with foreign signature reported self-signed")
	}
	if (*Certificate)(nil).SelfSigned() {
		t.Error("nil cert self-signed")
	}
}

func TestValidAt(t *testing.T) {
	c := SyntheticLeaf("valid.example", "1", SyntheticRoot("V Root", base), base, base.AddDate(1, 0, 0))
	cases := []struct {
		at   time.Time
		want bool
	}{
		{base, true},
		{base.AddDate(0, 6, 0), true},
		{base.AddDate(1, 0, 0), true}, // inclusive notAfter
		{base.Add(-time.Second), false},
		{base.AddDate(1, 0, 1), false},
	}
	for _, tc := range cases {
		if got := c.ValidAt(tc.at); got != tc.want {
			t.Errorf("ValidAt(%s) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestCanSignCertificates(t *testing.T) {
	root := SyntheticRoot("KU Root", base)
	if !root.CanSignCertificates() {
		t.Error("certSign root rejected")
	}
	noKU := NewSynthetic(SyntheticConfig{
		Subject: Name{CommonName: "NoKU"}, Issuer: root.Subject, Serial: "1",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: NewSyntheticKey("noku"), SignedBy: KeyOf(root),
		IsCA: true, BasicConstraintsValid: true,
	})
	if !noKU.CanSignCertificates() {
		t.Error("absent KeyUsage must impose no restriction")
	}
	badKU := NewSynthetic(SyntheticConfig{
		Subject: Name{CommonName: "BadKU"}, Issuer: root.Subject, Serial: "2",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: NewSyntheticKey("badku"), SignedBy: KeyOf(root),
		KeyUsage: KeyUsageDigitalSignature, HasKeyUsage: true,
		IsCA: true, BasicConstraintsValid: true,
	})
	if badKU.CanSignCertificates() {
		t.Error("digitalSignature-only KeyUsage allowed certSign")
	}
}

func TestSignatureVerifiedByMixedBackends(t *testing.T) {
	root := SyntheticRoot("Mix Root", base)
	leaf := SyntheticLeaf("mix.example", "1", root, base, base.AddDate(1, 0, 0))
	if !leaf.SignatureVerifiedBy(root) {
		t.Fatal("synthetic signature should verify")
	}
	// The mixed-backend rule is checked in certgen tests with actual DER;
	// here verify the nil guards.
	if leaf.SignatureVerifiedBy(nil) || (*Certificate)(nil).SignatureVerifiedBy(root) {
		t.Error("nil-parent/child verification should fail")
	}
}

func TestStringRendering(t *testing.T) {
	root := SyntheticRoot("Str Root", base)
	s := root.String()
	if s == "" || s == "<nil cert>" {
		t.Errorf("String() = %q", s)
	}
	if (*Certificate)(nil).String() != "<nil cert>" {
		t.Error("nil String() wrong")
	}
	if !bytes.Contains([]byte(s), []byte("Str Root")) {
		t.Errorf("String() lacks subject: %q", s)
	}
}
