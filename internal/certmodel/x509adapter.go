package certmodel

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
)

// FromX509 wraps a parsed stdlib certificate in the unified model. The
// returned Certificate shares cert's Raw bytes.
func FromX509(cert *x509.Certificate) *Certificate {
	pub := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
	c := &Certificate{
		Raw:                   cert.Raw,
		Subject:               FromPKIXName(cert.Subject),
		Issuer:                FromPKIXName(cert.Issuer),
		SerialNumber:          cert.SerialNumber.String(),
		NotBefore:             cert.NotBefore,
		NotAfter:              cert.NotAfter,
		SubjectKeyID:          cert.SubjectKeyId,
		AuthorityKeyID:        cert.AuthorityKeyId,
		IsCA:                  cert.IsCA,
		BasicConstraintsValid: cert.BasicConstraintsValid,
		MaxPathLen:            MaxPathLenUnset,
		DNSNames:              cert.DNSNames,
		AIAIssuerURLs:         cert.IssuingCertificateURL,
		PublicKeyID:           pub[:20],
		X509:                  cert,
	}
	if cert.KeyUsage != 0 {
		c.HasKeyUsage = true
		c.KeyUsage = fromX509KeyUsage(cert.KeyUsage)
	}
	if cert.BasicConstraintsValid && cert.IsCA {
		if cert.MaxPathLen > 0 || (cert.MaxPathLen == 0 && cert.MaxPathLenZero) {
			c.MaxPathLen = cert.MaxPathLen
		}
	}
	for _, ip := range cert.IPAddresses {
		c.IPAddresses = append(c.IPAddresses, ip.String())
	}
	for _, eku := range cert.ExtKeyUsage {
		switch eku {
		case x509.ExtKeyUsageServerAuth:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUServerAuth)
		case x509.ExtKeyUsageClientAuth:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUClientAuth)
		case x509.ExtKeyUsageCodeSigning:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUCodeSigning)
		case x509.ExtKeyUsageEmailProtection:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUEmailProtection)
		case x509.ExtKeyUsageOCSPSigning:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUOCSPSigning)
		case x509.ExtKeyUsageAny:
			c.ExtKeyUsages = append(c.ExtKeyUsages, EKUAny)
		}
	}
	c.PermittedDNSDomains = cert.PermittedDNSDomains
	c.ExcludedDNSDomains = cert.ExcludedDNSDomains
	return c
}

// ParseDER parses a single DER-encoded certificate into the unified model.
func ParseDER(der []byte) (*Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certmodel: parse DER: %w", err)
	}
	return FromX509(cert), nil
}

// ErrNoCertificates is returned by ParsePEMBundle when the input contains no
// CERTIFICATE blocks.
var ErrNoCertificates = errors.New("certmodel: no CERTIFICATE blocks in PEM input")

// ParsePEMBundle parses a concatenated PEM bundle — the file format CAs hand
// to subscribers and administrators paste into server configuration —
// preserving block order, which is the whole point: the order in the bundle
// becomes the order on the wire.
func ParsePEMBundle(data []byte) ([]*Certificate, error) {
	return (*CertMemo)(nil).ParsePEMBundle(data)
}

// ParsePEMBundle parses data as the package function ParsePEMBundle does,
// with the same certificates and the same errors, answering each CERTIFICATE
// block whose DER the memo holds from the memo. A block in the form
// pem.EncodeToMemory writes, at the start of the remaining input, is decoded
// on the stack, so its memo hit allocates nothing; every other block, and
// every block of the package function, goes through pem.Decode. The
// certificates never alias data.
func (m *CertMemo) ParsePEMBundle(data []byte) ([]*Certificate, error) {
	// Every CERTIFICATE block holds its own copy of the begin line, so the
	// count bounds the result.
	out := make([]*Certificate, 0, bytes.Count(data, []byte(pemCertBegin)))
	for len(data) > 0 {
		if m != nil {
			c, rest, ok, err := m.parseCanonical(data)
			if ok {
				if err != nil {
					return nil, fmt.Errorf("certmodel: bundle block %d: %w", len(out), err)
				}
				out = append(out, c)
				data = rest
				continue
			}
		}
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != "CERTIFICATE" {
			continue
		}
		c, err := m.parse(block.Bytes)
		if err != nil {
			return nil, fmt.Errorf("certmodel: bundle block %d: %w", len(out), err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, ErrNoCertificates
	}
	return out, nil
}

// EncodePEM renders the certificate list back into a concatenated PEM bundle.
// Only real certificates can be encoded; synthetic ones have no DER form.
func EncodePEM(certs []*Certificate) ([]byte, error) {
	var out []byte
	for i, c := range certs {
		if c.X509 == nil {
			return nil, fmt.Errorf("certmodel: certificate %d is synthetic, cannot PEM-encode", i)
		}
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Raw})...)
	}
	return out, nil
}

func fromX509KeyUsage(ku x509.KeyUsage) KeyUsage {
	var out KeyUsage
	pairs := []struct {
		std x509.KeyUsage
		our KeyUsage
	}{
		{x509.KeyUsageDigitalSignature, KeyUsageDigitalSignature},
		{x509.KeyUsageContentCommitment, KeyUsageContentCommitment},
		{x509.KeyUsageKeyEncipherment, KeyUsageKeyEncipherment},
		{x509.KeyUsageDataEncipherment, KeyUsageDataEncipherment},
		{x509.KeyUsageKeyAgreement, KeyUsageKeyAgreement},
		{x509.KeyUsageCertSign, KeyUsageCertSign},
		{x509.KeyUsageCRLSign, KeyUsageCRLSign},
	}
	for _, p := range pairs {
		if ku&p.std != 0 {
			out |= p.our
		}
	}
	return out
}
