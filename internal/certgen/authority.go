package certgen

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"time"

	"chainchaos/internal/certmodel"
)

// Reference is the fixed point in time the generated PKI is anchored to. The
// paper's measurement ran in March 2024; pinning the clock keeps every test
// and benchmark deterministic regardless of when it executes. Validation code
// throughout the repository takes an explicit "current time" and is handed
// Reference (or an offset of it) rather than time.Now.
var Reference = time.Date(2024, time.March, 15, 12, 0, 0, 0, time.UTC)

var serialCounter atomic.Int64

func nextSerial() *big.Int {
	return big.NewInt(serialCounter.Add(1))
}

// Authority is a CA: a certificate together with the private key that signs
// children. Leaf holds an end-entity certificate and its key (needed to
// stand up real TLS listeners).
type Authority struct {
	Cert *certmodel.Certificate
	Key  *ecdsa.PrivateKey
}

// Leaf is an end-entity certificate with its private key.
type Leaf struct {
	Cert *certmodel.Certificate
	Key  *ecdsa.PrivateKey
}

// Option mutates the certificate template before encoding.
type Option func(*Template)

// WithValidity sets the validity window.
func WithValidity(notBefore, notAfter time.Time) Option {
	return func(t *Template) { t.NotBefore, t.NotAfter = notBefore, notAfter }
}

// WithSerial forces a specific serial number.
func WithSerial(n int64) Option {
	return func(t *Template) { t.Serial = big.NewInt(n) }
}

// WithPathLen sets an explicit pathLenConstraint.
func WithPathLen(n int) Option {
	return func(t *Template) { t.HasPathLen, t.MaxPathLen = true, n }
}

// WithoutBasicConstraints drops the BasicConstraints extension entirely.
func WithoutBasicConstraints() Option {
	return func(t *Template) { t.IncludeBasicConstraints = false; t.IsCA = false }
}

// WithKeyUsage replaces the KeyUsage bits.
func WithKeyUsage(ku certmodel.KeyUsage) Option {
	return func(t *Template) { t.IncludeKeyUsage, t.KeyUsage = true, ku }
}

// WithoutKeyUsage drops the KeyUsage extension.
func WithoutKeyUsage() Option {
	return func(t *Template) { t.IncludeKeyUsage = false; t.KeyUsage = 0 }
}

// WithoutSKID suppresses the Subject Key Identifier extension — a shape
// x509.CreateCertificate cannot produce for CA certificates, and the reason
// this package has its own encoder.
func WithoutSKID() Option {
	return func(t *Template) { t.SKID = nil }
}

// WithSKID overrides the Subject Key Identifier (use for deliberate
// mismatches against a child's AKID).
func WithSKID(id []byte) Option {
	return func(t *Template) { t.SKID = id }
}

// WithAKID overrides the Authority Key Identifier (use for deliberate
// mismatches).
func WithAKID(id []byte) Option {
	return func(t *Template) { t.AKID = id }
}

// WithAIA sets the caIssuers URIs of the Authority Information Access
// extension.
func WithAIA(urls ...string) Option {
	return func(t *Template) { t.AIAIssuerURLs = urls }
}

// WithDNSNames sets the SAN dNSName entries.
func WithDNSNames(names ...string) Option {
	return func(t *Template) { t.DNSNames = names }
}

// WithIPAddresses sets the SAN iPAddress entries.
func WithIPAddresses(ips ...net.IP) Option {
	return func(t *Template) { t.IPAddresses = ips }
}

// WithEKU sets the Extended Key Usage purposes.
func WithEKU(ekus ...certmodel.ExtKeyUsage) Option {
	return func(t *Template) { t.ExtKeyUsages = ekus }
}

// WithNameConstraints sets permitted and excluded dNSName subtrees.
func WithNameConstraints(permitted, excluded []string) Option {
	return func(t *Template) { t.PermittedDNSDomains, t.ExcludedDNSDomains = permitted, excluded }
}

// WithWeakSignature signs the certificate with deprecated ECDSA-SHA1.
func WithWeakSignature() Option {
	return func(t *Template) { t.WeakSignature = true }
}

// WithSubject replaces the whole subject name.
func WithSubject(n certmodel.Name) Option {
	return func(t *Template) { t.Subject = n }
}

func generateKey() (*ecdsa.PrivateKey, error) {
	return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
}

func skidFor(pub *ecdsa.PublicKey) []byte {
	// Mirror certmodel.FromX509: SHA-256 of the SPKI, truncated to 20 bytes.
	var buf [p256SPKILen]byte
	spki, err := appendSPKI(buf[:0], pub)
	if err != nil {
		return nil
	}
	sum := sha256.Sum256(spki)
	return sum[:20]
}

// NewRoot creates a self-signed root CA.
func NewRoot(name string, opts ...Option) (*Authority, error) {
	key, err := generateKey()
	if err != nil {
		return nil, err
	}
	subject := certmodel.Name{CommonName: name, Organization: name + " Trust Services"}
	tpl := Template{
		Subject:                 subject,
		Issuer:                  subject,
		Serial:                  nextSerial(),
		NotBefore:               Reference.AddDate(-4, 0, 0),
		NotAfter:                Reference.AddDate(10, 0, 0),
		IncludeBasicConstraints: true,
		IsCA:                    true,
		IncludeKeyUsage:         true,
		KeyUsage:                certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		SKID:                    skidFor(&key.PublicKey),
	}
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("certgen: root %q: %w", name, err)
	}
	return &Authority{Cert: cert, Key: key}, nil
}

// NewIntermediate creates a CA certificate for cn signed by a.
func (a *Authority) NewIntermediate(cn string, opts ...Option) (*Authority, error) {
	key, err := generateKey()
	if err != nil {
		return nil, err
	}
	tpl := a.intermediateTemplate(cn, &key.PublicKey)
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &key.PublicKey, a.Key)
	if err != nil {
		return nil, fmt.Errorf("certgen: intermediate %q: %w", cn, err)
	}
	return &Authority{Cert: cert, Key: key}, nil
}

// ReissueIntermediate creates another certificate for an existing
// intermediate's key — same subject, same SKID, same public key — signed by
// a. This produces the same-subject/same-key candidate sets of the paper's
// priority tests (Table 2, tests 4–7) and of Figure 5's DigiCert example.
func (a *Authority) ReissueIntermediate(existing *Authority, opts ...Option) (*certmodel.Certificate, error) {
	tpl := a.intermediateTemplate(existing.Cert.Subject.CommonName, &existing.Key.PublicKey)
	tpl.Subject = existing.Cert.Subject
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &existing.Key.PublicKey, a.Key)
	if err != nil {
		return nil, fmt.Errorf("certgen: reissue %q: %w", existing.Cert.Subject, err)
	}
	return cert, nil
}

func (a *Authority) intermediateTemplate(cn string, pub *ecdsa.PublicKey) Template {
	return Template{
		Subject:                 certmodel.Name{CommonName: cn, Organization: a.Cert.Subject.Organization},
		Issuer:                  a.Cert.Subject,
		Serial:                  nextSerial(),
		NotBefore:               Reference.AddDate(-2, 0, 0),
		NotAfter:                Reference.AddDate(5, 0, 0),
		IncludeBasicConstraints: true,
		IsCA:                    true,
		IncludeKeyUsage:         true,
		KeyUsage:                certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		SKID:                    skidFor(pub),
		AKID:                    a.Cert.SubjectKeyID,
	}
}

// NewLeaf creates an end-entity certificate for domain signed by a.
func (a *Authority) NewLeaf(domain string, opts ...Option) (*Leaf, error) {
	key, err := generateKey()
	if err != nil {
		return nil, err
	}
	tpl := Template{
		Subject:                 certmodel.Name{CommonName: domain},
		Issuer:                  a.Cert.Subject,
		Serial:                  nextSerial(),
		NotBefore:               Reference.AddDate(0, -3, 0),
		NotAfter:                Reference.AddDate(1, 0, 0),
		IncludeBasicConstraints: true,
		IsCA:                    false,
		IncludeKeyUsage:         true,
		KeyUsage:                certmodel.KeyUsageDigitalSignature | certmodel.KeyUsageKeyEncipherment,
		SKID:                    skidFor(&key.PublicKey),
		AKID:                    a.Cert.SubjectKeyID,
		DNSNames:                []string{domain},
	}
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &key.PublicKey, a.Key)
	if err != nil {
		return nil, fmt.Errorf("certgen: leaf %q: %w", domain, err)
	}
	return &Leaf{Cert: cert, Key: key}, nil
}

// SelfSignedLeaf creates a self-signed end-entity certificate for domain —
// the "ES" certificate of Table 2's test 9.
func SelfSignedLeaf(domain string, opts ...Option) (*Leaf, error) {
	key, err := generateKey()
	if err != nil {
		return nil, err
	}
	subject := certmodel.Name{CommonName: domain}
	tpl := Template{
		Subject:                 subject,
		Issuer:                  subject,
		Serial:                  nextSerial(),
		NotBefore:               Reference.AddDate(0, -3, 0),
		NotAfter:                Reference.AddDate(1, 0, 0),
		IncludeBasicConstraints: true,
		IsCA:                    false,
		IncludeKeyUsage:         true,
		KeyUsage:                certmodel.KeyUsageDigitalSignature | certmodel.KeyUsageKeyEncipherment,
		SKID:                    skidFor(&key.PublicKey),
		DNSNames:                []string{domain},
	}
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("certgen: self-signed leaf %q: %w", domain, err)
	}
	return &Leaf{Cert: cert, Key: key}, nil
}

// CrossSign issues a certificate over target's existing key and subject,
// signed by a. The result shares target's subject DN and SKID but chains to
// a — the cross-signing shape behind the paper's multiple-path chains.
func (a *Authority) CrossSign(target *Authority, opts ...Option) (*certmodel.Certificate, error) {
	tpl := Template{
		Subject:                 target.Cert.Subject,
		Issuer:                  a.Cert.Subject,
		Serial:                  nextSerial(),
		NotBefore:               Reference.AddDate(-2, 0, 0),
		NotAfter:                Reference.AddDate(4, 0, 0),
		IncludeBasicConstraints: true,
		IsCA:                    true,
		IncludeKeyUsage:         true,
		KeyUsage:                certmodel.KeyUsageCertSign | certmodel.KeyUsageCRLSign,
		SKID:                    target.Cert.SubjectKeyID,
		AKID:                    a.Cert.SubjectKeyID,
	}
	for _, o := range opts {
		o(&tpl)
	}
	cert, err := EncodeToModel(tpl, &target.Key.PublicKey, a.Key)
	if err != nil {
		return nil, fmt.Errorf("certgen: cross-sign %q by %q: %w", target.Cert.Subject, a.Cert.Subject, err)
	}
	return cert, nil
}
