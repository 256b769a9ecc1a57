package certgen

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/binary"
	"fmt"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

// The encoding/asn1 encoder that the append encoder in der.go replaced,
// kept as the reference it must reproduce byte for byte: encodeTBSRef is the
// TBSCertificate the old Encode signed, and wrapRef the Certificate it
// wrapped around the TBSCertificate and a signature.

var (
	oidSignatureECDSAWithSHA256 = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 2}
	oidSignatureECDSAWithSHA1   = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 1}
	oidExtBasicConstraints      = asn1.ObjectIdentifier{2, 5, 29, 19}
	oidExtKeyUsage              = asn1.ObjectIdentifier{2, 5, 29, 15}
	oidExtSubjectKeyID          = asn1.ObjectIdentifier{2, 5, 29, 14}
	oidExtAuthorityKeyID        = asn1.ObjectIdentifier{2, 5, 29, 35}
	oidExtSubjectAltName        = asn1.ObjectIdentifier{2, 5, 29, 17}
	oidExtAIA                   = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 1, 1}
	oidAIACAIssuers             = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 48, 2}
	oidExtExtendedKeyUsage      = asn1.ObjectIdentifier{2, 5, 29, 37}
	oidExtNameConstraints       = asn1.ObjectIdentifier{2, 5, 29, 30}

	oidEKUServerAuth      = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 1}
	oidEKUClientAuth      = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 2}
	oidEKUCodeSigning     = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 3}
	oidEKUEmailProtection = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 4}
	oidEKUOCSPSigning     = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 9}
	oidEKUAny             = asn1.ObjectIdentifier{2, 5, 29, 37, 0}
)

type tbsCertificate struct {
	Version            int `asn1:"optional,explicit,default:0,tag:0"`
	SerialNumber       *big.Int
	SignatureAlgorithm pkix.AlgorithmIdentifier
	Issuer             asn1.RawValue
	Validity           validity
	Subject            asn1.RawValue
	PublicKey          asn1.RawValue
	Extensions         []pkix.Extension `asn1:"optional,explicit,tag:3,omitempty"`
}

type validity struct {
	NotBefore, NotAfter time.Time
}

type certificateASN1 struct {
	TBSCertificate     asn1.RawValue
	SignatureAlgorithm pkix.AlgorithmIdentifier
	SignatureValue     asn1.BitString
}

type basicConstraintsWithLen struct {
	IsCA bool `asn1:"optional"`
	// default:-1 forces a pathLenConstraint of zero to be encoded rather
	// than elided as an optional zero value.
	MaxPathLen int `asn1:"optional,default:-1"`
}

type basicConstraintsNoLen struct {
	IsCA bool `asn1:"optional"`
}

type authorityKeyID struct {
	ID []byte `asn1:"optional,tag:0"`
}

type accessDescription struct {
	Method   asn1.ObjectIdentifier
	Location asn1.RawValue
}

type nameConstraints struct {
	Permitted []generalSubtree `asn1:"optional,tag:0"`
	Excluded  []generalSubtree `asn1:"optional,tag:1"`
}

type generalSubtree struct {
	Base string `asn1:"tag:2"` // dNSName
}

func algorithmRef(weak bool) pkix.AlgorithmIdentifier {
	if weak {
		return pkix.AlgorithmIdentifier{Algorithm: oidSignatureECDSAWithSHA1}
	}
	return pkix.AlgorithmIdentifier{Algorithm: oidSignatureECDSAWithSHA256}
}

// encodeTBSRef is the TBSCertificate the encoding/asn1 encoder built for tpl
// and the subject key pub.
func encodeTBSRef(tpl Template, pub *ecdsa.PublicKey) ([]byte, error) {
	if tpl.Serial == nil {
		return nil, fmt.Errorf("certgen: template for %q has no serial", tpl.Subject)
	}
	spki, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal public key: %w", err)
	}
	issuerDER, err := asn1.Marshal(tpl.Issuer.ToPKIXName().ToRDNSequence())
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal issuer: %w", err)
	}
	subjectDER, err := asn1.Marshal(tpl.Subject.ToPKIXName().ToRDNSequence())
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal subject: %w", err)
	}
	exts, err := buildExtensionsRef(tpl)
	if err != nil {
		return nil, err
	}
	tbs := tbsCertificate{
		Version:            2, // X.509 v3
		SerialNumber:       tpl.Serial,
		SignatureAlgorithm: algorithmRef(tpl.WeakSignature),
		Issuer:             asn1.RawValue{FullBytes: issuerDER},
		Validity:           validity{tpl.NotBefore.UTC(), tpl.NotAfter.UTC()},
		Subject:            asn1.RawValue{FullBytes: subjectDER},
		PublicKey:          asn1.RawValue{FullBytes: spki},
		Extensions:         exts,
	}
	tbsDER, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal TBS: %w", err)
	}
	return tbsDER, nil
}

// wrapRef is the Certificate the encoding/asn1 encoder built around a
// TBSCertificate and its signature.
func wrapRef(tbsDER []byte, weak bool, sig []byte) ([]byte, error) {
	return asn1.Marshal(certificateASN1{
		TBSCertificate:     asn1.RawValue{FullBytes: tbsDER},
		SignatureAlgorithm: algorithmRef(weak),
		SignatureValue:     asn1.BitString{Bytes: sig, BitLength: len(sig) * 8},
	})
}

func buildExtensionsRef(tpl Template) ([]pkix.Extension, error) {
	var exts []pkix.Extension
	add := func(oid asn1.ObjectIdentifier, critical bool, value interface{}) error {
		der, err := asn1.Marshal(value)
		if err != nil {
			return fmt.Errorf("certgen: marshal extension %v: %w", oid, err)
		}
		exts = append(exts, pkix.Extension{Id: oid, Critical: critical, Value: der})
		return nil
	}

	if tpl.IncludeKeyUsage {
		bits := keyUsageBitsRef(tpl.KeyUsage)
		if err := add(oidExtKeyUsage, true, bits); err != nil {
			return nil, err
		}
	}
	if tpl.IncludeBasicConstraints {
		var err error
		if tpl.HasPathLen {
			err = add(oidExtBasicConstraints, true, basicConstraintsWithLen{tpl.IsCA, tpl.MaxPathLen})
		} else {
			err = add(oidExtBasicConstraints, true, basicConstraintsNoLen{tpl.IsCA})
		}
		if err != nil {
			return nil, err
		}
	}
	if tpl.SKID != nil {
		if err := add(oidExtSubjectKeyID, false, tpl.SKID); err != nil {
			return nil, err
		}
	}
	if tpl.AKID != nil {
		if err := add(oidExtAuthorityKeyID, false, authorityKeyID{ID: tpl.AKID}); err != nil {
			return nil, err
		}
	}
	if len(tpl.DNSNames) > 0 || len(tpl.IPAddresses) > 0 {
		san, err := marshalSANRef(tpl.DNSNames, tpl.IPAddresses)
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtSubjectAltName, Value: san})
	}
	if len(tpl.ExtKeyUsages) > 0 {
		var oids []asn1.ObjectIdentifier
		for _, e := range tpl.ExtKeyUsages {
			switch e {
			case certmodel.EKUServerAuth:
				oids = append(oids, oidEKUServerAuth)
			case certmodel.EKUClientAuth:
				oids = append(oids, oidEKUClientAuth)
			case certmodel.EKUCodeSigning:
				oids = append(oids, oidEKUCodeSigning)
			case certmodel.EKUEmailProtection:
				oids = append(oids, oidEKUEmailProtection)
			case certmodel.EKUOCSPSigning:
				oids = append(oids, oidEKUOCSPSigning)
			case certmodel.EKUAny:
				oids = append(oids, oidEKUAny)
			}
		}
		if err := add(oidExtExtendedKeyUsage, false, oids); err != nil {
			return nil, err
		}
	}
	if len(tpl.PermittedDNSDomains) > 0 || len(tpl.ExcludedDNSDomains) > 0 {
		var nc nameConstraints
		for _, d := range tpl.PermittedDNSDomains {
			nc.Permitted = append(nc.Permitted, generalSubtree{Base: d})
		}
		for _, d := range tpl.ExcludedDNSDomains {
			nc.Excluded = append(nc.Excluded, generalSubtree{Base: d})
		}
		if err := add(oidExtNameConstraints, true, nc); err != nil {
			return nil, err
		}
	}
	if len(tpl.AIAIssuerURLs) > 0 {
		var ads []accessDescription
		for _, u := range tpl.AIAIssuerURLs {
			ads = append(ads, accessDescription{
				Method:   oidAIACAIssuers,
				Location: asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 6, Bytes: []byte(u)},
			})
		}
		if err := add(oidExtAIA, false, ads); err != nil {
			return nil, err
		}
	}
	return exts, nil
}

// keyUsageBitsRef converts the KeyUsage bitmask to the ASN.1 BIT STRING
// layout, where bit 0 (digitalSignature) is the most significant bit of the
// first byte.
func keyUsageBitsRef(ku certmodel.KeyUsage) asn1.BitString {
	var buf [2]byte
	highest := -1
	for bit := 0; bit < 9; bit++ {
		if ku&(1<<bit) != 0 {
			buf[bit/8] |= 0x80 >> (bit % 8)
			highest = bit
		}
	}
	if highest < 0 {
		return asn1.BitString{Bytes: []byte{0}, BitLength: 1}
	}
	n := highest/8 + 1
	return asn1.BitString{Bytes: buf[:n], BitLength: highest + 1}
}

func marshalSANRef(dnsNames []string, ips []net.IP) ([]byte, error) {
	var raw []asn1.RawValue
	for _, name := range dnsNames {
		raw = append(raw, asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 2, Bytes: []byte(name)})
	}
	for _, ip := range ips {
		b := ip.To4()
		if b == nil {
			b = ip.To16()
		}
		raw = append(raw, asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 7, Bytes: b})
	}
	return asn1.Marshal(raw)
}

// splitCertificate returns the TBSCertificate and the signature of a
// Certificate with nothing after it.
func splitCertificate(t testing.TB, der []byte) (tbs, sig []byte) {
	t.Helper()
	var c certificateASN1
	rest, err := asn1.Unmarshal(der, &c)
	if err != nil || len(rest) != 0 {
		t.Fatalf("not one Certificate (%d bytes left): %v", len(rest), err)
	}
	return c.TBSCertificate.FullBytes, c.SignatureValue.Bytes
}

// checkEncoding fails unless der is the reference's Certificate for tpl and
// pub: the TBSCertificate byte for byte, and the wrapper byte for byte
// around the signature der carries (a signature is random, so it cannot be
// compared).
func checkEncoding(t testing.TB, tpl Template, pub *ecdsa.PublicKey, der []byte) {
	t.Helper()
	want, err := encodeTBSRef(tpl, pub)
	if err != nil {
		t.Fatalf("the reference fails where Encode did not: %v", err)
	}
	tbs, sig := splitCertificate(t, der)
	if !bytes.Equal(tbs, want) {
		t.Fatalf("TBSCertificate differs from the reference:\n got %x\nwant %x", tbs, want)
	}
	if wrapped, err := wrapRef(tbs, tpl.WeakSignature, sig); err != nil || !bytes.Equal(der, wrapped) {
		t.Fatalf("Certificate differs from the reference's wrapper (%v):\n got %x\nwant %x", err, der, wrapped)
	}
}

// checkTemplate encodes tpl with both encoders: both fail, or Encode's
// certificate is the reference's.
func checkTemplate(t *testing.T, tpl Template, key *ecdsa.PrivateKey) {
	t.Helper()
	_, refErr := encodeTBSRef(tpl, &key.PublicKey)
	der, err := Encode(tpl, &key.PublicKey, key)
	switch {
	case refErr != nil && err == nil:
		t.Fatalf("the reference fails (%v) but Encode does not", refErr)
	case refErr == nil && err != nil:
		t.Fatalf("Encode fails (%v) but the reference does not", err)
	case err == nil:
		checkEncoding(t, tpl, &key.PublicKey, der)
	}
}

var allEKUs = []certmodel.ExtKeyUsage{
	certmodel.EKUServerAuth, certmodel.EKUClientAuth, certmodel.EKUCodeSigning,
	certmodel.EKUEmailProtection, certmodel.EKUOCSPSigning, certmodel.EKUAny,
}

// TestEncodeMatchesReference: every constructor under every Option, and
// templates no constructor makes, encode to the reference's bytes, and
// fail where the reference fails.
func TestEncodeMatchesReference(t *testing.T) {
	root, err := NewRoot("Reference Root")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRoot("Reference Other Root")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate("Reference CA")
	if err != nil {
		t.Fatal(err)
	}
	options := []struct {
		name string
		opt  Option
	}{
		{"none", func(*Template) {}},
		// 1994 to 2064: a UTCTime, then a GeneralizedTime.
		{"WithValidity", WithValidity(Reference.AddDate(-30, 0, 0), Reference.AddDate(40, 0, 0))},
		{"WithSerial", WithSerial(1 << 62)},
		{"WithPathLen", WithPathLen(0)},
		{"WithoutBasicConstraints", WithoutBasicConstraints()},
		{"WithKeyUsage", WithKeyUsage(0x1ff)},
		{"WithoutKeyUsage", WithoutKeyUsage()},
		{"WithoutSKID", WithoutSKID()},
		{"WithSKID", WithSKID(bytes.Repeat([]byte{0xcd}, 20))},
		{"WithAKID", WithAKID([]byte{})},
		{"WithAIA", WithAIA("http://a.example/ca.der", "http://b.example/ca.der")},
		{"WithDNSNames", WithDNSNames("a.example", "*.b.example")},
		{"WithIPAddresses", WithIPAddresses(net.ParseIP("192.0.2.1"), net.ParseIP("2001:db8::1"))},
		{"WithEKU", WithEKU(allEKUs...)},
		{"WithNameConstraints", WithNameConstraints([]string{".example", "ok.test"}, []string{"bad.example"})},
		{"WithWeakSignature", WithWeakSignature()},
		{"WithSubject", WithSubject(certmodel.Name{CommonName: "*.Zürich.example", Organization: "R & D", OrganizationalUnit: "Unit 7", Country: "CH"})},
	}
	// Each constructor mints with the options given and returns the
	// certificate and its subject key.
	type minted func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error)
	ofAuthority := func(a *Authority, err error) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
		if err != nil {
			return nil, nil, err
		}
		return a.Cert, &a.Key.PublicKey, nil
	}
	ofLeaf := func(l *Leaf, err error) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
		if err != nil {
			return nil, nil, err
		}
		return l.Cert, &l.Key.PublicKey, nil
	}
	constructors := []struct {
		name string
		mint minted
	}{
		{"NewRoot", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			return ofAuthority(NewRoot("Minted Root", opts...))
		}},
		{"NewIntermediate", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			return ofAuthority(root.NewIntermediate("Minted CA", opts...))
		}},
		{"ReissueIntermediate", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			c, err := root.ReissueIntermediate(inter, opts...)
			return c, &inter.Key.PublicKey, err
		}},
		{"NewLeaf", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			return ofLeaf(inter.NewLeaf("minted.example", opts...))
		}},
		{"SelfSignedLeaf", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			return ofLeaf(SelfSignedLeaf("self.example", opts...))
		}},
		{"CrossSign", func(opts ...Option) (*certmodel.Certificate, *ecdsa.PublicKey, error) {
			c, err := other.CrossSign(inter, opts...)
			return c, &inter.Key.PublicKey, err
		}},
	}
	for _, c := range constructors {
		for _, o := range options {
			t.Run(c.name+"/"+o.name, func(t *testing.T) {
				// The last option sees the template the encoder is given.
				var tpl Template
				cert, pub, err := c.mint(o.opt, func(t *Template) { tpl = *t })
				if err != nil {
					t.Fatal(err)
				}
				checkEncoding(t, tpl, pub, cert.Raw)
			})
		}
	}

	key, err := generateKey()
	if err != nil {
		t.Fatal(err)
	}
	base := Template{
		Subject:   certmodel.Name{CommonName: "edge.example"},
		Issuer:    certmodel.Name{CommonName: "Edge CA", Organization: "Edge"},
		Serial:    big.NewInt(7),
		NotBefore: Reference,
		NotAfter:  Reference.AddDate(1, 0, 0),
	}
	huge, _ := new(big.Int).SetString("1"+strings.Repeat("0", 60), 16) // 2^240
	var manyNames []string
	for i := range 3000 {
		manyNames = append(manyNames, fmt.Sprintf("host-%d.many.example", i))
	}
	edges := []struct {
		name string
		edit func(*Template)
	}{
		{"minimal", func(*Template) {}},
		{"empty names", func(t *Template) { t.Subject, t.Issuer = certmodel.Name{}, certmodel.Name{} }},
		{"wildcard CN", func(t *Template) { t.Subject.CommonName = "*.wild.example" }},
		{"ampersand O", func(t *Template) { t.Subject.Organization = "A&B" }},
		{"non-ASCII names", func(t *Template) {
			t.Subject = certmodel.Name{CommonName: "證書.例子", Organization: "Zürich Trust", OrganizationalUnit: "Ünit", Country: "TW"}
		}},
		{"printable punctuation", func(t *Template) { t.Subject.CommonName = "a'b(c)d+e,f-g.h/i:j=k?l m" }},
		{"UTCTime bounds", func(t *Template) {
			t.NotBefore = time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC)
			t.NotAfter = time.Date(2049, 12, 31, 23, 59, 59, 0, time.UTC)
		}},
		{"GeneralizedTime bounds", func(t *Template) {
			t.NotBefore = time.Date(1949, 12, 31, 23, 59, 59, 0, time.UTC)
			t.NotAfter = time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC)
		}},
		{"far times", func(t *Template) {
			t.NotBefore, t.NotAfter = time.Time{}, time.Date(9999, 12, 31, 23, 59, 59, 999, time.UTC)
		}},
		{"local zone", func(t *Template) {
			zone := time.FixedZone("UTC+13", 13*3600)
			t.NotBefore = time.Date(2049, 12, 31, 20, 0, 0, 0, zone) // 2049-12-31 07:00 UTC
			t.NotAfter = time.Date(2050, 1, 1, 10, 0, 0, 0, zone)    // 2049-12-31 21:00 UTC
		}},
		{"pathLen 0", func(t *Template) { t.IncludeBasicConstraints, t.IsCA, t.HasPathLen, t.MaxPathLen = true, true, true, 0 }},
		{"pathLen -1", func(t *Template) {
			t.IncludeBasicConstraints, t.IsCA, t.HasPathLen, t.MaxPathLen = true, true, true, -1
		}},
		{"pathLen -200", func(t *Template) { t.IncludeBasicConstraints, t.HasPathLen, t.MaxPathLen = true, true, -200 }},
		{"pathLen 40000", func(t *Template) {
			t.IncludeBasicConstraints, t.IsCA, t.HasPathLen, t.MaxPathLen = true, true, true, 40000
		}},
		{"not CA, no pathLen", func(t *Template) { t.IncludeBasicConstraints = true }},
		{"empty KeyUsage", func(t *Template) { t.IncludeKeyUsage = true }},
		{"KeyUsage bit 8", func(t *Template) { t.IncludeKeyUsage, t.KeyUsage = true, 1<<8|certmodel.KeyUsageDigitalSignature }},
		{"KeyUsage past bit 8", func(t *Template) { t.IncludeKeyUsage, t.KeyUsage = true, 0xfe00|certmodel.KeyUsageCertSign }},
		{"empty SKID and AKID", func(t *Template) { t.SKID, t.AKID = []byte{}, []byte{} }},
		{"IP SANs", func(t *Template) {
			t.IPAddresses = []net.IP{net.ParseIP("192.0.2.9"), net.ParseIP("2001:db8::9"), net.IPv4(10, 0, 0, 1).To4(), net.IP{1, 2, 3}}
		}},
		{"empty SAN lists", func(t *Template) { t.DNSNames, t.IPAddresses = []string{}, []net.IP{} }},
		{"SAN bytes unchecked", func(t *Template) { t.DNSNames = []string{"\xff\xfe", ""} }},
		{"every EKU and unknown ones", func(t *Template) { t.ExtKeyUsages = append([]certmodel.ExtKeyUsage{99, -1}, allEKUs...) }},
		{"only unknown EKUs", func(t *Template) { t.ExtKeyUsages = []certmodel.ExtKeyUsage{42} }},
		{"permitted only", func(t *Template) { t.PermittedDNSDomains = []string{".a.example", "b.example"} }},
		{"excluded only", func(t *Template) { t.ExcludedDNSDomains = []string{"*.bad.example", "ünï.example"} }},
		{"several AIA URIs", func(t *Template) {
			t.AIAIssuerURLs = []string{"http://a.example/1.der", "http://b.example/2.der", "ldap://c.example/3", ""}
		}},
		{"SHA-1 signature", func(t *Template) { t.WeakSignature = true }},
		{"serial 0", func(t *Template) { t.Serial = big.NewInt(0) }},
		{"serial 127", func(t *Template) { t.Serial = big.NewInt(127) }},
		{"serial 128", func(t *Template) { t.Serial = big.NewInt(128) }},
		{"serial 256", func(t *Template) { t.Serial = big.NewInt(256) }},
		{"serial -1", func(t *Template) { t.Serial = big.NewInt(-1) }},
		{"serial -128", func(t *Template) { t.Serial = big.NewInt(-128) }},
		{"serial -129", func(t *Template) { t.Serial = big.NewInt(-129) }},
		{"serial -256", func(t *Template) { t.Serial = big.NewInt(-256) }},
		{"serial 2^64+1", func(t *Template) { t.Serial = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)) }},
		{"serial -2^64", func(t *Template) { t.Serial = new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 64)) }},
		{"serial 2^240", func(t *Template) { t.Serial = huge }},
		{"long-form lengths", func(t *Template) {
			t.DNSNames = manyNames
			t.AIAIssuerURLs = manyNames[:40]
			t.PermittedDNSDomains = manyNames[:20]
		}},
		{"everything", func(t *Template) {
			t.Subject = certmodel.Name{CommonName: "all.example", Organization: "All Org", OrganizationalUnit: "All OU", Country: "US"}
			t.IncludeBasicConstraints, t.IsCA, t.HasPathLen, t.MaxPathLen = true, true, true, 3
			t.IncludeKeyUsage, t.KeyUsage = true, certmodel.KeyUsageCertSign|certmodel.KeyUsageCRLSign
			t.SKID, t.AKID = skidFor(&key.PublicKey), bytes.Repeat([]byte{1}, 20)
			t.DNSNames, t.IPAddresses = []string{"all.example"}, []net.IP{net.ParseIP("198.51.100.7")}
			t.AIAIssuerURLs = []string{"http://all.example/ca.der"}
			t.ExtKeyUsages = allEKUs
			t.PermittedDNSDomains, t.ExcludedDNSDomains = []string{".example"}, []string{"x.example"}
		}},
		// The reference fails on these, so Encode must.
		{"no serial", func(t *Template) { t.Serial = nil }},
		{"invalid UTF-8 CN", func(t *Template) { t.Subject.CommonName = "bad\xffname" }},
		{"invalid UTF-8 O", func(t *Template) { t.Issuer.Organization = "\xc3" }},
		{"invalid UTF-8 OU", func(t *Template) { t.Subject.OrganizationalUnit = "x\x80" }},
		{"invalid UTF-8 C", func(t *Template) { t.Issuer.Country = "\xfe" }},
		{"invalid UTF-8 name constraint", func(t *Template) { t.ExcludedDNSDomains = []string{"ok.example", "\xff.example"} }},
		{"year 10000", func(t *Template) { t.NotAfter = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"year -1", func(t *Template) { t.NotBefore = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) }},
	}
	for _, e := range edges {
		t.Run("edge/"+e.name, func(t *testing.T) {
			tpl := base
			e.edit(&tpl)
			checkTemplate(t, tpl, key)
		})
	}
}

// fuzzTemplate decodes a template from fuzz input: each field takes what
// it needs from the front of data, and a field past the end is zero.
type fuzzTemplate struct{ data []byte }

func (f *fuzzTemplate) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	c := f.data[0]
	f.data = f.data[1:]
	return c
}

func (f *fuzzTemplate) bytes() []byte {
	n := min(int(f.byte()), len(f.data))
	b := f.data[:n]
	f.data = f.data[n:]
	return b
}

func (f *fuzzTemplate) string() string { return string(f.bytes()) }

func (f *fuzzTemplate) int64() int64 {
	var b [8]byte
	copy(b[:], f.bytes())
	return int64(binary.BigEndian.Uint64(b[:]))
}

func (f *fuzzTemplate) strings() []string {
	var ss []string
	for range f.byte() % 4 {
		ss = append(ss, f.string())
	}
	return ss
}

func (f *fuzzTemplate) name() certmodel.Name {
	return certmodel.Name{CommonName: f.string(), Organization: f.string(), OrganizationalUnit: f.string(), Country: f.string()}
}

func (f *fuzzTemplate) template() Template {
	flags := uint16(f.byte()) | uint16(f.byte())<<8
	bit := func(i int) bool { return flags&(1<<i) != 0 }
	tpl := Template{
		Subject:                 f.name(),
		Issuer:                  f.name(),
		IncludeBasicConstraints: bit(0),
		IsCA:                    bit(1),
		HasPathLen:              bit(2),
		MaxPathLen:              int(int16(f.int64())),
		IncludeKeyUsage:         bit(3),
		KeyUsage:                certmodel.KeyUsage(f.int64()),
		WeakSignature:           bit(4),
		DNSNames:                f.strings(),
		AIAIssuerURLs:           f.strings(),
		PermittedDNSDomains:     f.strings(),
		ExcludedDNSDomains:      f.strings(),
	}
	if !bit(5) {
		tpl.Serial = new(big.Int).SetBytes(f.bytes())
		if bit(6) {
			tpl.Serial.Neg(tpl.Serial)
		}
	}
	// Seconds within ±20,000 years of the epoch reach both time forms
	// and the years no form holds.
	const span = 20000 * 366 * 86400
	tpl.NotBefore = time.Unix(f.int64()%span, 0)
	tpl.NotAfter = time.Unix(f.int64()%span, 0)
	if bit(7) {
		tpl.SKID = append([]byte{}, f.bytes()...)
	}
	if bit(8) {
		tpl.AKID = append([]byte{}, f.bytes()...)
	}
	for range f.byte() % 4 {
		tpl.IPAddresses = append(tpl.IPAddresses, net.IP(f.bytes()))
	}
	for range f.byte() % 8 {
		tpl.ExtKeyUsages = append(tpl.ExtKeyUsages, certmodel.ExtKeyUsage(f.byte()%8))
	}
	return tpl
}

// FuzzEncodeTemplate: over templates decoded from the input, the
// TBSCertificate is the reference's, or both encoders fail, and the
// Certificate around a signature is the reference's.
func FuzzEncodeTemplate(f *testing.F) {
	key, err := generateKey()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("\x0f\x01\x09CN *.x.io\x02O&\x00\x02TW\x04Root\x00\x00\x00\x01\x03\x02\x01\xff"))
	f.Add(bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte("\xbf\x01\x05abc\xffd\x00\x00\x00\x00\x00\x00\x00\x00\x02\x01\x02\x03\x02a.b\x03c.d\x01\x04http\x01\x01x\x01\x01y"))
	sig := bytes.Repeat([]byte{0x5a}, 71)
	f.Fuzz(func(t *testing.T, data []byte) {
		tpl := (&fuzzTemplate{data}).template()
		want, refErr := encodeTBSRef(tpl, &key.PublicKey)
		tbs, err := appendTBS(nil, &tpl, &key.PublicKey)
		if (refErr != nil) != (err != nil) {
			t.Fatalf("reference error %v, encoder error %v", refErr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(tbs, want) {
			t.Fatalf("TBSCertificate differs from the reference:\n got %x\nwant %x", tbs, want)
		}
		der := certificate(tbs, tpl.WeakSignature, sig)
		if wrapped, err := wrapRef(tbs, tpl.WeakSignature, sig); err != nil || !bytes.Equal(der, wrapped) {
			t.Fatalf("Certificate differs from the reference's wrapper (%v)", err)
		}
	})
}

var encodeSink []byte

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestEncodeAllocs: encoding a study leaf's template allocates only the
// certificate it returns, and a subject key identifier only itself. The
// signature's own allocations are measured beside Encode's and taken off,
// because crypto/ecdsa's count differs between Go releases.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	root, err := NewRoot("Allocs Root")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := root.NewIntermediate("Allocs CA", WithAIA("http://repo.example/ca.der"))
	if err != nil {
		t.Fatal(err)
	}
	var tpl Template
	leaf, err := ca.NewLeaf("site-1.example", func(t *Template) { tpl = *t })
	if err != nil {
		t.Fatal(err)
	}
	pub := &leaf.Key.PublicKey
	digest := sha256.Sum256([]byte("tbs"))
	encode := testing.AllocsPerRun(200, func() {
		encodeSink, _ = Encode(tpl, pub, ca.Key)
	})
	sign := testing.AllocsPerRun(200, func() {
		encodeSink, _ = ecdsa.SignASN1(rand.Reader, ca.Key, digest[:])
	})
	t.Logf("Encode: %v allocations, its signature %v", encode, sign)
	if own := encode - sign; own != 1 {
		t.Errorf("Encode allocates %v times besides its signature's %v, want 1 (the certificate)", own, sign)
	}
	if n := testing.AllocsPerRun(200, func() { encodeSink = skidFor(pub) }); n != 1 {
		t.Errorf("skidFor allocates %v times, want 1 (the identifier)", n)
	}
}
