package certmodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"time"
)

// SyntheticKey names a simulated key pair. Two synthetic certificates are
// linked by "signature" when the child's SignedByKeyID equals the parent's
// PublicKeyID, so a key is nothing more than a stable 20-byte identifier
// derived from its name. Cross-signing falls out naturally: two certificates
// built with the same subject Key but different SignedBy keys share a
// PublicKeyID (and hence an SKID) while chaining to different parents —
// exactly the USERTrust topology of the paper's Figure 2c.
type SyntheticKey struct {
	name string
	id   []byte
}

// NewSyntheticKey derives a key identity from a name. The same name always
// yields the same identity.
func NewSyntheticKey(name string) SyntheticKey {
	sum := sha256.Sum256([]byte("key:" + name))
	return SyntheticKey{name: name, id: sum[:20]}
}

// ID returns the 20-byte key identifier.
func (k SyntheticKey) ID() []byte { return k.id }

// IsZero reports whether the key is the zero value (no identity).
func (k SyntheticKey) IsZero() bool { return len(k.id) == 0 }

// SyntheticConfig describes a synthetic certificate. The zero value of each
// field means "absent": no SKID/AKID extension unless a key is given, no
// KeyUsage extension unless HasKeyUsage, no pathLenConstraint unless
// HasPathLen.
type SyntheticConfig struct {
	Subject Name
	Issuer  Name
	Serial  string

	NotBefore time.Time
	NotAfter  time.Time

	// Key is the subject key pair; SignedBy is the key that signs the
	// certificate. A self-signed certificate uses the same key for both.
	Key      SyntheticKey
	SignedBy SyntheticKey

	// OmitSKID / OmitAKID suppress the key-identifier extensions even when
	// the corresponding keys are known, modelling certificates that lack
	// them (Table 2 test 5 includes a no-KID candidate).
	OmitSKID bool
	OmitAKID bool

	// AKIDOverride, when non-nil, replaces the derived AKID with an
	// arbitrary (typically mismatching) value.
	AKIDOverride []byte

	KeyUsage    KeyUsage
	HasKeyUsage bool

	IsCA                  bool
	BasicConstraintsValid bool
	// MaxPathLen is used only when HasPathLen is true.
	MaxPathLen int
	HasPathLen bool

	DNSNames    []string
	IPAddresses []string

	AIAIssuerURLs []string

	ExtKeyUsages []ExtKeyUsage

	PermittedDNSDomains []string
	ExcludedDNSDomains  []string

	// WeakSignature marks the simulated signature as using a deprecated
	// algorithm.
	WeakSignature bool
}

// NewSynthetic builds a synthetic certificate. Raw is a canonical text
// encoding of every field, so two certificates built from identical configs
// are bit-for-bit duplicates and any field difference changes the encoding —
// the properties the duplicate detector relies on.
func NewSynthetic(cfg SyntheticConfig) *Certificate {
	c := &Certificate{
		Subject:               cfg.Subject,
		Issuer:                cfg.Issuer,
		SerialNumber:          cfg.Serial,
		NotBefore:             cfg.NotBefore,
		NotAfter:              cfg.NotAfter,
		KeyUsage:              cfg.KeyUsage,
		HasKeyUsage:           cfg.HasKeyUsage,
		IsCA:                  cfg.IsCA,
		BasicConstraintsValid: cfg.BasicConstraintsValid,
		MaxPathLen:            MaxPathLenUnset,
		DNSNames:              append([]string(nil), cfg.DNSNames...),
		IPAddresses:           append([]string(nil), cfg.IPAddresses...),
		AIAIssuerURLs:         append([]string(nil), cfg.AIAIssuerURLs...),
		ExtKeyUsages:          append([]ExtKeyUsage(nil), cfg.ExtKeyUsages...),
		PermittedDNSDomains:   append([]string(nil), cfg.PermittedDNSDomains...),
		ExcludedDNSDomains:    append([]string(nil), cfg.ExcludedDNSDomains...),
		WeakSignature:         cfg.WeakSignature,
		PublicKeyID:           cfg.Key.ID(),
		SignedByKeyID:         cfg.SignedBy.ID(),
	}
	if cfg.HasPathLen {
		c.MaxPathLen = cfg.MaxPathLen
	}
	if !cfg.OmitSKID && !cfg.Key.IsZero() {
		c.SubjectKeyID = cfg.Key.ID()
	}
	switch {
	case cfg.AKIDOverride != nil:
		c.AuthorityKeyID = append([]byte(nil), cfg.AKIDOverride...)
	case !cfg.OmitAKID && !cfg.SignedBy.IsZero():
		c.AuthorityKeyID = cfg.SignedBy.ID()
	}
	c.Raw = encodeSynthetic(c)
	return c
}

// encodeSynthetic renders every semantic field into a canonical byte string.
// It is one append pass into a stack buffer with a single exact-size copy at
// the end, because every synthetic leaf of a population pays for it; the
// text is pinned byte for byte to the fmt-based reference encoder in
// synthetic_test.go.
func encodeSynthetic(c *Certificate) []byte {
	var buf [1024]byte
	b := append(buf[:0], "synthetic-cert/v1\nsubject="...)
	b = c.Subject.appendTo(b)
	b = append(b, "\nissuer="...)
	b = c.Issuer.appendTo(b)
	b = append(b, "\nserial="...)
	b = append(b, c.SerialNumber...)
	b = append(b, "\nnotBefore="...)
	b = strconv.AppendInt(b, c.NotBefore.Unix(), 10)
	b = append(b, "\nnotAfter="...)
	b = strconv.AppendInt(b, c.NotAfter.Unix(), 10)
	b = append(b, "\nskid="...)
	b = hex.AppendEncode(b, c.SubjectKeyID)
	b = append(b, "\nakid="...)
	b = hex.AppendEncode(b, c.AuthorityKeyID)
	b = append(b, "\nkeyUsage="...)
	b = strconv.AppendUint(b, uint64(c.KeyUsage), 10)
	b = append(b, '/')
	b = strconv.AppendBool(b, c.HasKeyUsage)
	b = append(b, "\nca="...)
	b = strconv.AppendBool(b, c.IsCA)
	b = append(b, '/')
	b = strconv.AppendBool(b, c.BasicConstraintsValid)
	b = append(b, " pathLen="...)
	b = strconv.AppendInt(b, int64(c.MaxPathLen), 10)
	b = append(b, "\ndns="...)
	b = appendJoin(b, sorted(c.DNSNames))
	b = append(b, "\nip="...)
	b = appendJoin(b, sorted(c.IPAddresses))
	b = append(b, "\naia="...)
	b = appendJoin(b, c.AIAIssuerURLs)
	b = append(b, "\neku=["...)
	for i, e := range c.ExtKeyUsages {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, e.String()...)
	}
	b = append(b, "]\nncPermit="...)
	b = appendJoin(b, c.PermittedDNSDomains)
	b = append(b, "\nncExclude="...)
	b = appendJoin(b, c.ExcludedDNSDomains)
	b = append(b, "\nweakSig="...)
	b = strconv.AppendBool(b, c.WeakSignature)
	b = append(b, "\npub="...)
	b = hex.AppendEncode(b, c.PublicKeyID)
	b = append(b, "\nsig="...)
	b = hex.AppendEncode(b, c.SignedByKeyID)
	b = append(b, '\n')
	return append([]byte(nil), b...)
}

// appendJoin appends strings.Join(ss, ",") without building the string.
func appendJoin(b []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return b
}

// sorted returns ss in sorted order, copying only when it is not sorted
// already (a leaf's single SAN is never copied).
func sorted(ss []string) []string {
	if slices.IsSorted(ss) {
		return ss
	}
	out := slices.Clone(ss)
	slices.Sort(out)
	return out
}

// SyntheticRoot builds a self-signed synthetic CA certificate with a ten-year
// validity starting at base.
func SyntheticRoot(name string, base time.Time) *Certificate {
	key := NewSyntheticKey(name)
	subject := Name{CommonName: name, Organization: name + " Trust Services"}
	return NewSynthetic(SyntheticConfig{
		Subject:               subject,
		Issuer:                subject,
		Serial:                "root-" + name,
		NotBefore:             base,
		NotAfter:              base.AddDate(10, 0, 0),
		Key:                   key,
		SignedBy:              key,
		KeyUsage:              KeyUsageCertSign | KeyUsageCRLSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})
}

// SyntheticIntermediate builds a CA certificate for subjectCN issued by
// parent. The parent must itself be synthetic.
func SyntheticIntermediate(subjectCN string, parent *Certificate, base time.Time) *Certificate {
	key := NewSyntheticKey(subjectCN)
	return NewSynthetic(SyntheticConfig{
		Subject:               Name{CommonName: subjectCN, Organization: parent.Subject.Organization},
		Issuer:                parent.Subject,
		Serial:                "int-" + subjectCN,
		NotBefore:             base,
		NotAfter:              base.AddDate(5, 0, 0),
		Key:                   key,
		SignedBy:              SyntheticKey{name: "", id: parent.PublicKeyID},
		KeyUsage:              KeyUsageCertSign | KeyUsageCRLSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})
}

// SyntheticLeaf builds an end-entity certificate for domain issued by parent.
func SyntheticLeaf(domain, serial string, parent *Certificate, notBefore, notAfter time.Time) *Certificate {
	key := NewSyntheticKey("leaf:" + domain + ":" + serial)
	return NewSynthetic(SyntheticConfig{
		Subject:               Name{CommonName: domain},
		Issuer:                parent.Subject,
		Serial:                serial,
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		Key:                   key,
		SignedBy:              SyntheticKey{name: "", id: parent.PublicKeyID},
		KeyUsage:              KeyUsageDigitalSignature | KeyUsageKeyEncipherment,
		HasKeyUsage:           true,
		BasicConstraintsValid: true,
		DNSNames:              []string{domain},
	})
}

// KeyOf returns a SyntheticKey referring to cert's existing public key,
// letting callers sign further synthetic certificates with it (used for
// cross-signing and for crafting AKID-correct variants).
func KeyOf(cert *Certificate) SyntheticKey {
	return SyntheticKey{name: "", id: cert.PublicKeyID}
}

// KeyFromID wraps a raw key identifier (a PublicKeyID or SignedByKeyID taken
// from an existing synthetic certificate) as a SyntheticKey. A nil or empty
// id yields the zero key.
func KeyFromID(id []byte) SyntheticKey {
	if len(id) == 0 {
		return SyntheticKey{}
	}
	return SyntheticKey{id: append([]byte(nil), id...)}
}

// SyntheticConfigOf reverse-maps a synthetic certificate to a SyntheticConfig
// that rebuilds it bit-identically: NewSynthetic(SyntheticConfigOf(c)) has
// Raw equal to c.Raw. Mutation operators use it to rebuild a certificate with
// one field perturbed instead of constructing configs from scratch.
func SyntheticConfigOf(c *Certificate) SyntheticConfig {
	cfg := SyntheticConfig{
		Subject:               c.Subject,
		Issuer:                c.Issuer,
		Serial:                c.SerialNumber,
		NotBefore:             c.NotBefore,
		NotAfter:              c.NotAfter,
		Key:                   KeyFromID(c.PublicKeyID),
		SignedBy:              KeyFromID(c.SignedByKeyID),
		KeyUsage:              c.KeyUsage,
		HasKeyUsage:           c.HasKeyUsage,
		IsCA:                  c.IsCA,
		BasicConstraintsValid: c.BasicConstraintsValid,
		DNSNames:              append([]string(nil), c.DNSNames...),
		IPAddresses:           append([]string(nil), c.IPAddresses...),
		AIAIssuerURLs:         append([]string(nil), c.AIAIssuerURLs...),
		ExtKeyUsages:          append([]ExtKeyUsage(nil), c.ExtKeyUsages...),
		PermittedDNSDomains:   append([]string(nil), c.PermittedDNSDomains...),
		ExcludedDNSDomains:    append([]string(nil), c.ExcludedDNSDomains...),
		WeakSignature:         c.WeakSignature,
	}
	if c.MaxPathLen != MaxPathLenUnset {
		cfg.MaxPathLen = c.MaxPathLen
		cfg.HasPathLen = true
	}
	cfg.OmitSKID = c.SubjectKeyID == nil && !cfg.Key.IsZero()
	switch {
	case c.AuthorityKeyID == nil:
		cfg.OmitAKID = !cfg.SignedBy.IsZero()
	case !bytes.Equal(c.AuthorityKeyID, c.SignedByKeyID):
		cfg.AKIDOverride = append([]byte(nil), c.AuthorityKeyID...)
	}
	return cfg
}
