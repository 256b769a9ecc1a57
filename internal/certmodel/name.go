package certmodel

import "crypto/x509/pkix"

// Name is a simplified X.501 distinguished name. It carries the attributes
// that matter for chain construction and compliance analysis: chain builders
// compare the child's issuer DN against the parent's subject DN, and the
// leaf-placement analyzer inspects the CommonName.
//
// Name is a comparable value type so it can be used directly as a map key.
type Name struct {
	CommonName         string
	Organization       string
	OrganizationalUnit string
	Country            string
}

// IsZero reports whether every attribute of the name is empty. Certificates
// with empty subjects exist in the wild (the paper's "Other" leaf category
// includes empty-CN test certificates).
func (n Name) IsZero() bool {
	return n == Name{}
}

// String renders the name in the conventional comma-separated RDN form,
// omitting empty attributes, e.g. "C=US, O=DigiCert Inc, CN=DigiCert TLS CA".
func (n Name) String() string {
	var buf [128]byte
	return string(n.appendTo(buf[:0]))
}

// appendTo appends the String form of n to b.
func (n Name) appendTo(b []byte) []byte {
	start := len(b)
	for _, rdn := range [...]struct{ key, val string }{
		{"C=", n.Country},
		{"O=", n.Organization},
		{"OU=", n.OrganizationalUnit},
		{"CN=", n.CommonName},
	} {
		if rdn.val == "" {
			continue
		}
		if len(b) > start {
			b = append(b, ", "...)
		}
		b = append(b, rdn.key...)
		b = append(b, rdn.val...)
	}
	if len(b) == start {
		b = append(b, "<empty>"...)
	}
	return b
}

// FromPKIXName converts a pkix.Name from a parsed X.509 certificate into a
// Name, keeping the first value of each multi-valued attribute.
func FromPKIXName(p pkix.Name) Name {
	n := Name{CommonName: p.CommonName}
	if len(p.Organization) > 0 {
		n.Organization = p.Organization[0]
	}
	if len(p.OrganizationalUnit) > 0 {
		n.OrganizationalUnit = p.OrganizationalUnit[0]
	}
	if len(p.Country) > 0 {
		n.Country = p.Country[0]
	}
	return n
}

// ToPKIXName converts the Name back to a pkix.Name for use in certificate
// templates handed to crypto/x509.
func (n Name) ToPKIXName() pkix.Name {
	p := pkix.Name{CommonName: n.CommonName}
	if n.Organization != "" {
		p.Organization = []string{n.Organization}
	}
	if n.OrganizationalUnit != "" {
		p.OrganizationalUnit = []string{n.OrganizationalUnit}
	}
	if n.Country != "" {
		p.Country = []string{n.Country}
	}
	return p
}
