package certmodel_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/population"
)

// Flag bits of FuzzSyntheticEncoding's flags argument.
const (
	fOmitSKID = 1 << iota
	fOmitAKID
	fHasKeyUsage
	fIsCA
	fBasicConstraints
	fHasPathLen
	fWeakSignature
	fAKIDOverride // AKIDOverride is akid, even when akid is empty
)

// Names travel as their four attributes joined by nameSep, lists as their
// elements joined by listSep.
const (
	nameSep = "|"
	listSep = "\n"
)

func joinName(n certmodel.Name) string {
	return strings.Join([]string{n.CommonName, n.Organization, n.OrganizationalUnit, n.Country}, nameSep)
}

func splitName(s string) certmodel.Name {
	f := append(strings.SplitN(s, nameSep, 4), "", "", "")
	return certmodel.Name{CommonName: f[0], Organization: f[1], OrganizationalUnit: f[2], Country: f[3]}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, listSep)
}

// addSeed decomposes a synthetic certificate into FuzzSyntheticEncoding's
// arguments, so real certificates seed the corpus.
func addSeed(f *testing.F, c *certmodel.Certificate) {
	cfg := certmodel.SyntheticConfigOf(c)
	var flags uint8
	for i, on := range []bool{ // in flag-bit order
		cfg.OmitSKID, cfg.OmitAKID, cfg.HasKeyUsage, cfg.IsCA, cfg.BasicConstraintsValid,
		cfg.HasPathLen, cfg.WeakSignature, cfg.AKIDOverride != nil,
	} {
		if on {
			flags |= 1 << i
		}
	}
	var eku []byte
	for _, e := range cfg.ExtKeyUsages {
		eku = append(eku, byte(e))
	}
	f.Add(joinName(cfg.Subject), joinName(cfg.Issuer), cfg.Serial,
		cfg.NotBefore.Unix(), cfg.NotAfter.Unix(),
		cfg.Key.ID(), cfg.SignedBy.ID(), cfg.AKIDOverride, flags, uint16(cfg.KeyUsage), cfg.MaxPathLen,
		strings.Join(cfg.DNSNames, listSep), strings.Join(cfg.IPAddresses, listSep),
		strings.Join(cfg.AIAIssuerURLs, listSep), strings.Join(cfg.PermittedDNSDomains, listSep),
		strings.Join(cfg.ExcludedDNSDomains, listSep), eku)
}

// seedCertificates returns the population's issuer certificates, a leaf of
// each issuer, and every certificate of the committed divfuzz scenarios.
func seedCertificates(f *testing.F) []*certmodel.Certificate {
	var out []*certmodel.Certificate
	base := time.Date(2024, time.March, 15, 12, 0, 0, 0, time.UTC)
	for _, iss := range population.NewSource(population.Config{Size: 1}).Population().Issuers {
		out = append(out, iss.Root, iss.CrossRoot, iss.CrossSigned, iss.RootCrossSigned)
		out = append(out, iss.Intermediates...)
		out = append(out, iss.IssueLeaf("seed.example", base, base.AddDate(1, 0, 0), ca.LeafOptions{Serial: "seed"}))
	}
	scenarios, err := population.LoadScenarios("../population/testdata/scenarios.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range scenarios {
		m, err := s.Materialize()
		if err != nil {
			f.Fatal(err)
		}
		_, aia := m.AIAEntries()
		out = append(out, m.List...)
		out = append(out, m.Roots...)
		out = append(out, aia...)
	}
	return out
}

// FuzzSyntheticEncoding: for any field values, NewSynthetic's Raw is the fmt
// reference encoder's text, and rebuilding from SyntheticConfigOf reproduces
// it.
func FuzzSyntheticEncoding(f *testing.F) {
	for _, c := range seedCertificates(f) {
		addSeed(f, c)
	}
	f.Fuzz(func(t *testing.T, subject, issuer, serial string, notBefore, notAfter int64,
		keyID, signedBy, akid []byte, flags uint8, keyUsage uint16, pathLen int,
		dns, ips, aia, ncPermit, ncExclude string, eku []byte) {
		cfg := certmodel.SyntheticConfig{
			Subject:               splitName(subject),
			Issuer:                splitName(issuer),
			Serial:                serial,
			NotBefore:             time.Unix(notBefore, 0).UTC(),
			NotAfter:              time.Unix(notAfter, 0).UTC(),
			Key:                   certmodel.KeyFromID(keyID),
			SignedBy:              certmodel.KeyFromID(signedBy),
			OmitSKID:              flags&fOmitSKID != 0,
			OmitAKID:              flags&fOmitAKID != 0,
			KeyUsage:              certmodel.KeyUsage(keyUsage),
			HasKeyUsage:           flags&fHasKeyUsage != 0,
			IsCA:                  flags&fIsCA != 0,
			BasicConstraintsValid: flags&fBasicConstraints != 0,
			MaxPathLen:            pathLen,
			HasPathLen:            flags&fHasPathLen != 0,
			DNSNames:              splitList(dns),
			IPAddresses:           splitList(ips),
			AIAIssuerURLs:         splitList(aia),
			PermittedDNSDomains:   splitList(ncPermit),
			ExcludedDNSDomains:    splitList(ncExclude),
			WeakSignature:         flags&fWeakSignature != 0,
		}
		if flags&fAKIDOverride != 0 {
			cfg.AKIDOverride = append([]byte{}, akid...)
		}
		for _, e := range eku {
			cfg.ExtKeyUsages = append(cfg.ExtKeyUsages, certmodel.ExtKeyUsage(int8(e)))
		}
		c := certmodel.NewSynthetic(cfg)
		if want := certmodel.EncodeSyntheticRef(c); !bytes.Equal(c.Raw, want) {
			t.Fatalf("Raw differs from the reference encoder:\n got %q\nwant %q", c.Raw, want)
		}
		if again := certmodel.NewSynthetic(certmodel.SyntheticConfigOf(c)); !bytes.Equal(again.Raw, c.Raw) {
			t.Fatalf("SyntheticConfigOf round trip differs:\n got %q\nwant %q", again.Raw, c.Raw)
		}
	})
}
