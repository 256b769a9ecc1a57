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
//
// A key derived from a name holds its identifier inline, so deriving one
// allocates nothing; a key wrapping an existing identifier (KeyOf,
// KeyFromID) refers to it.
type SyntheticKey struct {
	derived bool
	sum     [keyIDLen]byte // the identifier of a derived key
	id      []byte         // the identifier of a wrapped key
}

// keyIDLen is the length of a derived key identifier.
const keyIDLen = 20

// NewSyntheticKey derives a key identity from a name. The same name always
// yields the same identity.
func NewSyntheticKey(name string) SyntheticKey {
	var buf [128]byte
	return deriveKey(append(append(buf[:0], "key:"...), name...))
}

// leafKey returns NewSyntheticKey("leaf:" + domain + ":" + serial), the key
// of a minted leaf, without building the name.
func leafKey(domain, serial string) SyntheticKey {
	var buf [128]byte
	b := append(buf[:0], "key:leaf:"...)
	b = append(append(append(b, domain...), ':'), serial...)
	return deriveKey(b)
}

// deriveKey returns the key whose identifier is the first keyIDLen bytes of
// the SHA-256 of text.
func deriveKey(text []byte) SyntheticKey {
	sum := sha256.Sum256(text)
	k := SyntheticKey{derived: true}
	copy(k.sum[:], sum[:])
	return k
}

// ID returns the key identifier: a derived key's 20 bytes as a new slice, or
// the identifier a wrapped key refers to.
func (k SyntheticKey) ID() []byte {
	if k.derived {
		return append([]byte(nil), k.sum[:]...)
	}
	return k.id
}

// IsZero reports whether the key is the zero value (no identity).
func (k SyntheticKey) IsZero() bool { return !k.derived && len(k.id) == 0 }

// idIn returns the identifier a certificate holds for k: a derived key's
// copied into dst, a wrapped key's shared.
func (k *SyntheticKey) idIn(dst *[keyIDLen]byte) []byte {
	if !k.derived {
		return k.id
	}
	*dst = k.sum
	return dst[:]
}

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

// blockStrings is how many strings of a synthetic certificate's name, URI
// and constraint lists fit in its own allocation: a minted leaf's DNS name
// and caIssuers URI.
const blockStrings = 2

// syntheticBlock is one allocation holding a synthetic certificate and the
// room its derived key identifiers and short string lists are carved from.
type syntheticBlock struct {
	cert    Certificate
	keyIDs  [2][keyIDLen]byte
	strings [blockStrings]string
}

// NewSynthetic builds a synthetic certificate. Raw is a canonical text
// encoding of every field, so two certificates built from identical configs
// are bit-for-bit duplicates and any field difference changes the encoding —
// the properties the duplicate detector relies on.
//
// The certificate owns copies of the config's lists. It takes two
// allocations when its lists hold at most blockStrings strings and no
// extended key usage or AKID override: the certificate with its key
// identifiers and lists, and Raw.
func NewSynthetic(cfg SyntheticConfig) *Certificate {
	return newSynthetic(&cfg, cfg.DNSNames)
}

// newSynthetic is NewSynthetic with dns in place of cfg.DNSNames. It reads
// dns only to copy it, so a caller whose config carries no DNS names can
// keep dns on its stack, which a slice inside the config escapes.
func newSynthetic(cfg *SyntheticConfig, dns []string) *Certificate {
	b := &syntheticBlock{cert: Certificate{
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
		ExtKeyUsages:          append([]ExtKeyUsage(nil), cfg.ExtKeyUsages...),
		WeakSignature:         cfg.WeakSignature,
	}}
	c := &b.cert
	room := b.strings[:0]
	c.DNSNames = carve(&room, dns)
	c.IPAddresses = carve(&room, cfg.IPAddresses)
	c.AIAIssuerURLs = carve(&room, cfg.AIAIssuerURLs)
	c.PermittedDNSDomains = carve(&room, cfg.PermittedDNSDomains)
	c.ExcludedDNSDomains = carve(&room, cfg.ExcludedDNSDomains)
	c.PublicKeyID = cfg.Key.idIn(&b.keyIDs[0])
	c.SignedByKeyID = cfg.SignedBy.idIn(&b.keyIDs[1])
	if cfg.HasPathLen {
		c.MaxPathLen = cfg.MaxPathLen
	}
	if !cfg.OmitSKID && !cfg.Key.IsZero() {
		c.SubjectKeyID = c.PublicKeyID
	}
	switch {
	case cfg.AKIDOverride != nil:
		c.AuthorityKeyID = append([]byte(nil), cfg.AKIDOverride...)
	case !cfg.OmitAKID && !cfg.SignedBy.IsZero():
		c.AuthorityKeyID = c.SignedByKeyID
	}
	c.Raw = encodeSynthetic(c)
	return c
}

// carve returns a copy of ss, capped at its length, taken from the free room
// of *room when it fits and from a new array when it does not. An empty list
// copies to nil.
func carve(room *[]string, ss []string) []string {
	r := *room
	if len(ss) == 0 {
		return nil
	}
	if len(ss) > cap(r)-len(r) {
		return append([]string(nil), ss...)
	}
	*room = append(r, ss...)
	return (*room)[len(r):len(*room):len(*room)]
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
		SignedBy:              KeyOf(parent),
		KeyUsage:              KeyUsageCertSign | KeyUsageCRLSign,
		HasKeyUsage:           true,
		IsCA:                  true,
		BasicConstraintsValid: true,
	})
}

// SyntheticLeaf builds an end-entity certificate for domain issued by
// parent, with the caIssuers URIs aia. With at most one URI it takes the two
// allocations of NewSynthetic: minting a leaf costs those and the serial.
func SyntheticLeaf(domain, serial string, parent *Certificate, notBefore, notAfter time.Time, aia ...string) *Certificate {
	dns := [1]string{domain}
	return newSynthetic(&SyntheticConfig{
		Subject:               Name{CommonName: domain},
		Issuer:                parent.Subject,
		Serial:                serial,
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		Key:                   leafKey(domain, serial),
		SignedBy:              KeyOf(parent),
		KeyUsage:              KeyUsageDigitalSignature | KeyUsageKeyEncipherment,
		HasKeyUsage:           true,
		BasicConstraintsValid: true,
		AIAIssuerURLs:         aia,
	}, dns[:])
}

// KeyOf returns a SyntheticKey referring to cert's existing public key,
// letting callers sign further synthetic certificates with it (used for
// cross-signing and for crafting AKID-correct variants).
func KeyOf(cert *Certificate) SyntheticKey {
	return SyntheticKey{id: cert.PublicKeyID}
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
