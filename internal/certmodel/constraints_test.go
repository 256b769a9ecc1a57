package certmodel

import "testing"

func TestPermitsServerAuth(t *testing.T) {
	mk := func(ekus ...ExtKeyUsage) *Certificate {
		key := NewSyntheticKey("eku-test")
		return NewSynthetic(SyntheticConfig{
			Subject: Name{CommonName: "EKU"}, Issuer: Name{CommonName: "EKU CA"},
			Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: key, SignedBy: key, ExtKeyUsages: ekus,
		})
	}
	if !mk().PermitsServerAuth() {
		t.Error("absent EKU must permit serverAuth")
	}
	if !mk(EKUServerAuth).PermitsServerAuth() {
		t.Error("serverAuth EKU rejected")
	}
	if !mk(EKUClientAuth, EKUServerAuth).PermitsServerAuth() {
		t.Error("mixed EKU with serverAuth rejected")
	}
	if !mk(EKUAny).PermitsServerAuth() {
		t.Error("anyEKU rejected")
	}
	if mk(EKUClientAuth).PermitsServerAuth() {
		t.Error("clientAuth-only EKU permitted serverAuth")
	}
	if mk(EKUCodeSigning, EKUEmailProtection, EKUOCSPSigning).PermitsServerAuth() {
		t.Error("non-TLS EKU set permitted serverAuth")
	}
	for e := EKUServerAuth; e <= EKUAny; e++ {
		if e.String() == "unknownEKU" {
			t.Errorf("EKU %d renders unknown", int(e))
		}
	}
}

func TestNameWithinConstraint(t *testing.T) {
	cases := []struct {
		host, constraint string
		want             bool
	}{
		{"example.com", "example.com", true},
		{"www.example.com", "example.com", true},
		{"a.b.example.com", "example.com", true},
		{"badexample.com", "example.com", false},
		{"example.com", ".example.com", false}, // leading dot: subdomains only
		{"www.example.com", ".example.com", true},
		{"www.example.com", "other.com", false},
		{"WWW.Example.COM", "example.com", true},
		{"*.shop.example.com", "example.com", true}, // wildcard host stripped
		{"anything.at.all", "", true},
	}
	for _, tc := range cases {
		if got := nameWithinConstraint(tc.host, tc.constraint); got != tc.want {
			t.Errorf("nameWithinConstraint(%q, %q) = %v, want %v", tc.host, tc.constraint, got, tc.want)
		}
	}
}

func TestNamesAllowedBy(t *testing.T) {
	caKey := NewSyntheticKey("nc-ca")
	mkCA := func(permitted, excluded []string) *Certificate {
		return NewSynthetic(SyntheticConfig{
			Subject: Name{CommonName: "NC CA"}, Issuer: Name{CommonName: "NC Root"},
			Serial: "ca", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: caKey, SignedBy: NewSyntheticKey("nc-root"),
			IsCA: true, BasicConstraintsValid: true,
			PermittedDNSDomains: permitted, ExcludedDNSDomains: excluded,
		})
	}
	mkLeaf := func(names ...string) *Certificate {
		return NewSynthetic(SyntheticConfig{
			Subject: Name{CommonName: names[0]}, Issuer: Name{CommonName: "NC CA"},
			Serial: "leaf-" + names[0], NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: NewSyntheticKey("nc-leaf-" + names[0]), SignedBy: caKey,
			DNSNames: names,
		})
	}

	unconstrained := mkCA(nil, nil)
	if !mkLeaf("anything.example").NamesAllowedBy(unconstrained) {
		t.Error("unconstrained CA restricted a leaf")
	}

	permitOnly := mkCA([]string{"corp.example"}, nil)
	if !mkLeaf("www.corp.example").NamesAllowedBy(permitOnly) {
		t.Error("in-tree leaf rejected")
	}
	if mkLeaf("www.other.example").NamesAllowedBy(permitOnly) {
		t.Error("out-of-tree leaf accepted")
	}
	if mkLeaf("www.corp.example", "escape.other.example").NamesAllowedBy(permitOnly) {
		t.Error("a single out-of-tree SAN must poison the leaf")
	}

	excludeOnly := mkCA(nil, []string{"internal.example"})
	if !mkLeaf("www.public.example").NamesAllowedBy(excludeOnly) {
		t.Error("non-excluded leaf rejected")
	}
	if mkLeaf("secret.internal.example").NamesAllowedBy(excludeOnly) {
		t.Error("excluded leaf accepted")
	}

	// CN fallback when no SANs exist.
	cnOnly := NewSynthetic(SyntheticConfig{
		Subject: Name{CommonName: "cn.other.example"}, Issuer: Name{CommonName: "NC CA"},
		Serial: "cn", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: NewSyntheticKey("nc-cn"), SignedBy: caKey,
	})
	if cnOnly.NamesAllowedBy(permitOnly) {
		t.Error("CN-only leaf outside the permitted tree accepted")
	}

	if !mkLeaf("x.example").HasNameConstraints() == false {
		t.Error("leaf should have no name constraints")
	}
	if !permitOnly.HasNameConstraints() {
		t.Error("constrained CA not flagged")
	}
}

// TestNamesAllowedByTable pins NamesAllowedBy's answers, and that checking
// a leaf's SANs against a constrained CA allocates nothing (the CN fallback
// allocates inside LooksLikeDomain).
func TestNamesAllowedByTable(t *testing.T) {
	caKey := NewSyntheticKey("nct-ca")
	ca := NewSynthetic(SyntheticConfig{
		Subject: Name{CommonName: "NCT CA"}, Issuer: Name{CommonName: "NCT Root"},
		Serial: "ca", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: caKey, SignedBy: NewSyntheticKey("nct-root"),
		IsCA: true, BasicConstraintsValid: true,
		PermittedDNSDomains: []string{"corp.example"},
		ExcludedDNSDomains:  []string{"secret.corp.example"},
	})
	cases := []struct {
		name string
		cn   string
		sans []string
		want bool
	}{
		{"permitted", "www.corp.example", []string{"www.corp.example", "api.corp.example"}, true},
		{"outside-permitted", "www.corp.example", []string{"www.corp.example", "www.other.example"}, false},
		{"excluded", "www.corp.example", []string{"db.secret.corp.example"}, false},
		{"sans-over-cn", "www.other.example", []string{"www.corp.example"}, true},
		{"no-sans-domain-cn-permitted", "mail.corp.example", nil, true},
		{"no-sans-domain-cn-outside", "mail.other.example", nil, false},
		{"no-sans-domain-cn-excluded", "x.secret.corp.example", nil, false},
		{"no-sans-non-domain-cn", "Internal Test Cert", nil, true},
		{"no-sans-empty-cn", "", nil, true},
	}
	for _, tc := range cases {
		leaf := NewSynthetic(SyntheticConfig{
			Subject: Name{CommonName: tc.cn}, Issuer: ca.Subject,
			Serial: tc.name, NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: NewSyntheticKey("nct-" + tc.name), SignedBy: caKey,
			DNSNames: tc.sans,
		})
		if got := leaf.NamesAllowedBy(ca); got != tc.want {
			t.Errorf("%s: NamesAllowedBy = %v, want %v", tc.name, got, tc.want)
		}
		if len(tc.sans) == 0 {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { leaf.NamesAllowedBy(ca) }); allocs != 0 {
			t.Errorf("%s: NamesAllowedBy allocates %.1f times", tc.name, allocs)
		}
	}
}
