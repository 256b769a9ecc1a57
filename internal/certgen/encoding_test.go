package certgen

import (
	"crypto/x509"
	"math/big"
	"net"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

func TestKeyUsageBits(t *testing.T) {
	cases := []struct {
		ku      certmodel.KeyUsage
		wantLen int
	}{
		{certmodel.KeyUsageDigitalSignature, 1}, // bit 0 only
		{certmodel.KeyUsageCertSign, 6},         // bit 5
		{certmodel.KeyUsageCRLSign, 7},          // bit 6
		{certmodel.KeyUsageDigitalSignature | certmodel.KeyUsageCRLSign, 7},
		{0, 1},
	}
	for _, tc := range cases {
		if _, n := keyUsageBits(tc.ku); n != tc.wantLen {
			t.Errorf("keyUsageBits(%b) bit length = %d, want %d", tc.ku, n, tc.wantLen)
		}
	}
	// Round-trip through a real certificate: the parsed KeyUsage must
	// match what went in.
	root, err := NewRoot("KU Encode Root")
	if err != nil {
		t.Fatal(err)
	}
	for _, ku := range []certmodel.KeyUsage{
		certmodel.KeyUsageDigitalSignature,
		certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		certmodel.KeyUsageKeyEncipherment | certmodel.KeyUsageDigitalSignature,
	} {
		leaf, err := root.NewLeaf("ku-rt.example", WithKeyUsage(ku))
		if err != nil {
			t.Fatal(err)
		}
		if leaf.Cert.KeyUsage != ku {
			t.Errorf("round trip %b -> %b", ku, leaf.Cert.KeyUsage)
		}
	}
}

func TestGeneralizedTimeBeyond2050(t *testing.T) {
	// ASN.1 UTCTime ends at 2049; longer-lived roots need GeneralizedTime.
	// Encode switches at 2050, as encoding/asn1 did; verify the round trip.
	nb := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	na := time.Date(2055, 1, 1, 0, 0, 0, 0, time.UTC)
	root, err := NewRoot("Long Lived Root", WithValidity(nb, na))
	if err != nil {
		t.Fatal(err)
	}
	if !root.Cert.NotAfter.Equal(na) {
		t.Errorf("NotAfter = %v, want %v", root.Cert.NotAfter, na)
	}
	if _, err := x509.ParseCertificate(root.Cert.Raw); err != nil {
		t.Errorf("stdlib reparse failed: %v", err)
	}
}

func TestSANEncodings(t *testing.T) {
	root, err := NewRoot("SAN Root")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.NewLeaf("san.example",
		WithDNSNames("san.example", "*.san.example"),
		WithIPAddresses(net.ParseIP("192.0.2.9"), net.ParseIP("2001:db8::9")))
	if err != nil {
		t.Fatal(err)
	}
	c := leaf.Cert
	if len(c.DNSNames) != 2 || c.DNSNames[1] != "*.san.example" {
		t.Errorf("DNS SANs = %v", c.DNSNames)
	}
	if len(c.IPAddresses) != 2 {
		t.Fatalf("IP SANs = %v", c.IPAddresses)
	}
	if !c.MatchesDomain("192.0.2.9") || !c.MatchesDomain("x.san.example") {
		t.Error("SAN matching broken after encoding")
	}
}

func TestSerialRequired(t *testing.T) {
	tpl := Template{Subject: certmodel.Name{CommonName: "No Serial"}}
	root, err := NewRoot("Serial Root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(tpl, &root.Key.PublicKey, root.Key); err == nil {
		t.Error("missing serial accepted")
	}
	tpl.Serial = big.NewInt(42)
	tpl.Issuer = tpl.Subject
	tpl.NotBefore = Reference
	tpl.NotAfter = Reference.AddDate(1, 0, 0)
	der, err := Encode(tpl, &root.Key.PublicKey, root.Key)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := certmodel.ParseDER(der)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.SerialNumber != "42" {
		t.Errorf("serial = %s", parsed.SerialNumber)
	}
	// Minimal template: no extensions at all.
	if parsed.BasicConstraintsValid || parsed.HasKeyUsage || parsed.SubjectKeyID != nil {
		t.Error("extension-free template produced extensions")
	}
}

func TestSerialsMonotonic(t *testing.T) {
	a, err := NewRoot("Serial A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRoot("Serial B")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cert.SerialNumber == b.Cert.SerialNumber {
		t.Error("serials collide")
	}
}

func TestSelfSignedLeafHelper(t *testing.T) {
	es, err := SelfSignedLeaf("ss.example")
	if err != nil {
		t.Fatal(err)
	}
	if !es.Cert.SelfSigned() {
		t.Error("not self-signed")
	}
	if es.Cert.IsCA {
		t.Error("self-signed leaf must not be a CA")
	}
	if !es.Cert.MatchesDomain("ss.example") {
		t.Error("domain mismatch")
	}
}

func TestWeakSignature(t *testing.T) {
	root, err := NewRoot("Weak Sig Root")
	if err != nil {
		t.Fatal(err)
	}
	weak, err := root.NewIntermediate("Weak Sig CA", certgen_WithWeakSignature())
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Cert.HasWeakSignature() {
		t.Error("SHA1-signed certificate not flagged weak")
	}
	// The structural link still verifies (stdlib CheckSignature allows
	// SHA1 so analyzers can see the issuance edge, matching how the
	// paper's measurement tooling links such certs); rejection is the
	// validator's job via ProblemDeprecatedCrypto.
	if !weak.Cert.SignatureVerifiedBy(root.Cert) {
		t.Error("SHA1 signature should remain structurally linkable")
	}
	// A normal sibling is unaffected.
	ok, err := root.NewIntermediate("Strong Sig CA")
	if err != nil {
		t.Fatal(err)
	}
	if ok.Cert.HasWeakSignature() || !ok.Cert.SignatureVerifiedBy(root.Cert) {
		t.Error("SHA256 sibling misclassified")
	}
}

// certgen_WithWeakSignature aliases the option for the test (avoids import
// cycles in editors that auto-group).
func certgen_WithWeakSignature() Option { return WithWeakSignature() }
