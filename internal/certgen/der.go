// Package certgen creates real, cryptographically signed X.509 certificates
// for the client-capability tests and the TLS scan substrate.
//
// It contains its own DER encoder rather than using x509.CreateCertificate,
// because the paper's test chains require malformed shapes the stdlib
// constructor refuses to emit: CA certificates without a Subject Key
// Identifier (Table 2 test 5), mismatching Authority Key Identifiers, absent
// KeyUsage extensions, and incorrect pathLenConstraints. The encoder produces
// standard DER that crypto/x509 parses and verifies normally, so everything
// downstream — including the real TLS handshakes in internal/tlsserve — works
// with these certificates.
package certgen

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"net"
	"time"
	"unicode/utf8"

	"chainchaos/internal/certmodel"
)

// Template fully describes a certificate to encode. Zero values mean
// "absent": no BasicConstraints unless IncludeBasicConstraints, no KeyUsage
// unless IncludeKeyUsage, no pathLenConstraint unless HasPathLen, and no
// SKID/AKID unless the respective byte slices are non-nil.
type Template struct {
	Subject certmodel.Name
	Issuer  certmodel.Name
	Serial  *big.Int

	NotBefore time.Time
	NotAfter  time.Time

	IncludeBasicConstraints bool
	IsCA                    bool
	HasPathLen              bool
	MaxPathLen              int

	IncludeKeyUsage bool
	KeyUsage        certmodel.KeyUsage

	// SKID and AKID extension values; nil omits the extension.
	SKID []byte
	AKID []byte

	DNSNames    []string
	IPAddresses []net.IP

	AIAIssuerURLs []string

	// ExtKeyUsages adds an Extended Key Usage extension when non-empty.
	ExtKeyUsages []certmodel.ExtKeyUsage

	// Name Constraints (dNSName form); the extension is emitted when
	// either list is non-empty.
	PermittedDNSDomains []string
	ExcludedDNSDomains  []string

	// WeakSignature signs the certificate with ECDSA-SHA1, an algorithm
	// modern verifiers refuse — the DEPRECATED_CRYPTO test material.
	// crypto/x509 parses such certificates but rejects their signatures.
	WeakSignature bool
}

// DER tags.
const (
	tagInteger          = 0x02
	tagBitString        = 0x03
	tagOctetString      = 0x04
	tagUTF8String       = 0x0c
	tagPrintableString  = 0x13
	tagUTCTime          = 0x17
	tagGeneralizedTime  = 0x18
	tagSequence         = 0x30
	tagSet              = 0x31
	tagPermitted        = 0xa0 // [0] IMPLICIT, constructed
	tagExcluded         = 0xa1 // [1] IMPLICIT, constructed
	tagExtensions       = 0xa3 // [3] EXPLICIT
	tagKeyIdentifier    = 0x80 // [0] IMPLICIT OCTET STRING
	tagDNSName          = 0x82 // GeneralName [2] IMPLICIT IA5String
	tagURI              = 0x86 // GeneralName [6]
	tagIPAddress        = 0x87 // GeneralName [7]
	derBooleanTrue      = "\x01\x01\xff"
	derVersion3         = "\xa0\x03\x02\x01\x02" // [0] EXPLICIT INTEGER 2
	derECDSAWithSHA256  = "\x30\x0a\x06\x08\x2a\x86\x48\xce\x3d\x04\x03\x02"
	derECDSAWithSHA1    = "\x30\x09\x06\x07\x2a\x86\x48\xce\x3d\x04\x01"
	p256CoordinateBytes = 32
	// derP256SPKIPrefix is a P-256 SubjectPublicKeyInfo up to the point:
	// id-ecPublicKey with the prime256v1 curve, then the BIT STRING
	// holding the 65-byte uncompressed point, up to its 0x04 form byte.
	derP256SPKIPrefix = "\x30\x59\x30\x13\x06\x07\x2a\x86\x48\xce\x3d\x02\x01" +
		"\x06\x08\x2a\x86\x48\xce\x3d\x03\x01\x07\x03\x42\x00\x04"
	p256SPKILen = len(derP256SPKIPrefix) + 2*p256CoordinateBytes
)

// DER object identifiers, tag and length included.
const (
	oidCountry            = "\x06\x03\x55\x04\x06"
	oidOrganization       = "\x06\x03\x55\x04\x0a"
	oidOrganizationalUnit = "\x06\x03\x55\x04\x0b"
	oidCommonName         = "\x06\x03\x55\x04\x03"

	oidKeyUsage         = "\x06\x03\x55\x1d\x0f"
	oidBasicConstraints = "\x06\x03\x55\x1d\x13"
	oidSubjectKeyID     = "\x06\x03\x55\x1d\x0e"
	oidAuthorityKeyID   = "\x06\x03\x55\x1d\x23"
	oidSubjectAltName   = "\x06\x03\x55\x1d\x11"
	oidExtendedKeyUsage = "\x06\x03\x55\x1d\x25"
	oidNameConstraints  = "\x06\x03\x55\x1d\x1e"
	oidAuthorityInfo    = "\x06\x08\x2b\x06\x01\x05\x05\x07\x01\x01"
	oidCAIssuers        = "\x06\x08\x2b\x06\x01\x05\x05\x07\x30\x02"
)

// ekuOID returns the DER object identifier of an extended key usage, or ""
// for a value the encoder does not know (such values are left out).
func ekuOID(e certmodel.ExtKeyUsage) string {
	switch e {
	case certmodel.EKUServerAuth:
		return "\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x01"
	case certmodel.EKUClientAuth:
		return "\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x02"
	case certmodel.EKUCodeSigning:
		return "\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x03"
	case certmodel.EKUEmailProtection:
		return "\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x04"
	case certmodel.EKUOCSPSigning:
		return "\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x09"
	case certmodel.EKUAny:
		return "\x06\x04\x55\x1d\x25\x00"
	}
	return ""
}

// Encode builds and signs the certificate described by tpl. The subject's
// public key is pub, a P-256 key; signer is the issuer's private key (the
// subject's own key for self-signed certificates). It returns the DER
// encoding.
//
// The encoder is one append pass: the TBSCertificate goes into a stack
// buffer, each length filled in once its content is written, and the signed
// Certificate is copied into one slice of exactly its size. Its bytes are
// pinned to the encoding/asn1 encoder it replaced (reference_test.go): the
// same string types, time forms and omitted defaults. The public key's point
// is written as given; certmodel.ParseDER, which EncodeToModel runs, rejects
// one that is not on the curve.
func Encode(tpl Template, pub *ecdsa.PublicKey, signer *ecdsa.PrivateKey) ([]byte, error) {
	var buf [1024]byte
	tbs, err := appendTBS(buf[:0], &tpl, pub)
	if err != nil {
		return nil, err
	}
	var sum []byte
	if tpl.WeakSignature {
		s := sha1.Sum(tbs)
		sum = s[:]
	} else {
		s := sha256.Sum256(tbs)
		sum = s[:]
	}
	sig, err := ecdsa.SignASN1(rand.Reader, signer, sum)
	if err != nil {
		return nil, fmt.Errorf("certgen: sign: %w", err)
	}
	return certificate(tbs, tpl.WeakSignature, sig), nil
}

// EncodeToModel encodes the template and returns it parsed into the unified
// certificate model.
func EncodeToModel(tpl Template, pub *ecdsa.PublicKey, signer *ecdsa.PrivateKey) (*certmodel.Certificate, error) {
	der, err := Encode(tpl, pub, signer)
	if err != nil {
		return nil, err
	}
	return certmodel.ParseDER(der)
}

// certificate returns the Certificate that signs tbs with sig, in a new
// slice of exactly its length.
func certificate(tbs []byte, weak bool, sig []byte) []byte {
	alg := signatureAlgorithm(weak)
	n := len(tbs) + len(alg) + headerLen(len(sig)+1) + 1 + len(sig)
	der := make([]byte, 0, headerLen(n)+n)
	der = appendHeader(der, tagSequence, n)
	der = append(der, tbs...)
	der = append(der, alg...)
	der = appendHeader(der, tagBitString, len(sig)+1)
	der = append(der, 0) // no unused bits
	return append(der, sig...)
}

func signatureAlgorithm(weak bool) string {
	if weak {
		return derECDSAWithSHA1
	}
	return derECDSAWithSHA256
}

// appendTBS appends the TBSCertificate of tpl with the subject key pub.
func appendTBS(b []byte, tpl *Template, pub *ecdsa.PublicKey) ([]byte, error) {
	if tpl.Serial == nil {
		return nil, fmt.Errorf("certgen: template for %q has no serial", tpl.Subject)
	}
	b, tbs := begin(b, tagSequence)
	b = append(b, derVersion3...)
	b = appendInteger(b, tpl.Serial)
	b = append(b, signatureAlgorithm(tpl.WeakSignature)...)
	var err error
	if b, err = appendName(b, &tpl.Issuer); err != nil {
		return nil, fmt.Errorf("certgen: issuer: %w", err)
	}
	b, validity := begin(b, tagSequence)
	if b, err = appendTime(b, tpl.NotBefore); err != nil {
		return nil, err
	}
	if b, err = appendTime(b, tpl.NotAfter); err != nil {
		return nil, err
	}
	b = end(b, validity)
	if b, err = appendName(b, &tpl.Subject); err != nil {
		return nil, fmt.Errorf("certgen: subject: %w", err)
	}
	if b, err = appendSPKI(b, pub); err != nil {
		return nil, err
	}
	if b, err = appendExtensions(b, tpl); err != nil {
		return nil, err
	}
	return end(b, tbs), nil
}

// begin appends a tag and a one-byte placeholder for its length, and
// returns where the content starts, for end.
func begin(b []byte, tag byte) ([]byte, int) {
	b = append(b, tag, 0)
	return b, len(b)
}

// end sets the length of the element whose content starts at start (as
// begin returned it) to what has been appended since. A length of 128 bytes
// or more takes the long form, which moves the content right by the k bytes
// it adds.
func end(b []byte, start int) []byte {
	n := len(b) - start
	if n < 0x80 {
		b[start-1] = byte(n)
		return b
	}
	var hdr [9]byte
	length := appendHeader(hdr[:0], 0, n)[1:] // 0x80|k, then k bytes of n
	k := len(length) - 1
	b = append(b, length[1:]...) // k bytes of room
	copy(b[start+k:], b[start:len(b)-k])
	copy(b[start-1:], length)
	return b
}

// appendHeader appends a tag and the length n in DER's shortest form.
func appendHeader(b []byte, tag byte, n int) []byte {
	if n < 0x80 {
		return append(b, tag, byte(n))
	}
	k := headerLen(n) - 2
	b = append(b, tag, 0x80|byte(k))
	for i := k - 1; i >= 0; i-- {
		b = append(b, byte(n>>(8*i)))
	}
	return b
}

// headerLen is the size of a tag and the length n.
func headerLen(n int) int {
	if n < 0x80 {
		return 2
	}
	k := 2
	for ; n > 0; n >>= 8 {
		k++
	}
	return k
}

// appendTLV appends a primitive element.
func appendTLV[S ~string | ~[]byte](b []byte, tag byte, v S) []byte {
	return append(appendHeader(b, tag, len(v)), v...)
}

// appendInteger appends n as a DER INTEGER: big-endian two's complement in
// the fewest bytes that keep its sign.
func appendInteger(b []byte, n *big.Int) []byte {
	b, start := begin(b, tagInteger)
	m, sign := n, byte(0)
	if n.Sign() < 0 {
		// -n-1 = ^n is non-negative, and its bytes inverted are n's.
		m, sign = new(big.Int).Not(n), 0xff
	}
	if m.BitLen()%8 == 0 {
		// A full top byte would read as the other sign, and zero
		// takes one byte.
		b = append(b, sign)
	}
	k := (m.BitLen() + 7) / 8
	b = append(b, make([]byte, k)...)
	m.FillBytes(b[len(b)-k:])
	if sign != 0 {
		for i := len(b) - k; i < len(b); i++ {
			b[i] ^= 0xff
		}
	}
	return end(b, start)
}

// appendSmallInt appends v as a DER INTEGER.
func appendSmallInt(b []byte, v int64) []byte {
	k := 1
	for w := v; w > 127 || w < -128; w >>= 8 {
		k++
	}
	b = append(b, tagInteger, byte(k))
	for i := k - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// appendName appends n as the RDNSequence pkix.Name.ToRDNSequence builds
// from it: C, O, OU and CN in that order, one attribute per RDN, empty
// attributes left out.
func appendName(b []byte, n *certmodel.Name) ([]byte, error) {
	b, seq := begin(b, tagSequence)
	for _, a := range [...]struct{ oid, value string }{
		{oidCountry, n.Country},
		{oidOrganization, n.Organization},
		{oidOrganizationalUnit, n.OrganizationalUnit},
		{oidCommonName, n.CommonName},
	} {
		if a.value == "" {
			continue
		}
		tag, err := stringTag(a.value)
		if err != nil {
			return nil, err
		}
		var set, atv int
		b, set = begin(b, tagSet)
		b, atv = begin(b, tagSequence)
		b = append(b, a.oid...)
		b = appendTLV(b, tag, a.value)
		b = end(end(b, atv), set)
	}
	return end(b, seq), nil
}

// stringTag picks the type encoding/asn1 gives a string with no type of
// its own: PrintableString when every character is in that set ('*' and
// '&' are not), otherwise UTF8String, which must then be valid UTF-8.
func stringTag(s string) (byte, error) {
	for i := 0; i < len(s); i++ {
		if !printable(s[i]) {
			if !utf8.ValidString(s) {
				return 0, fmt.Errorf("%q is not valid UTF-8", s)
			}
			return tagUTF8String, nil
		}
	}
	return tagPrintableString, nil
}

// printable reports whether c is in ASN.1's PrintableString alphabet.
func printable(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		'\'' <= c && c <= ')' || '+' <= c && c <= '/' ||
		c == ' ' || c == ':' || c == '=' || c == '?'
}

// appendTime appends t in UTC as a UTCTime for the years 1950–2049 and as
// a GeneralizedTime otherwise, to the second.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	t = t.UTC()
	year, month, day := t.Date()
	switch {
	case 1950 <= year && year < 2050:
		b = append(b, tagUTCTime, 13)
		b = appendTwoDigits(b, year)
	case 0 <= year && year <= 9999:
		b = append(b, tagGeneralizedTime, 15)
		b = appendTwoDigits(appendTwoDigits(b, year/100), year)
	default:
		return nil, fmt.Errorf("certgen: validity bound %v has no ASN.1 time form", t)
	}
	hour, minute, second := t.Clock()
	for _, v := range [...]int{int(month), day, hour, minute, second} {
		b = appendTwoDigits(b, v)
	}
	return append(b, 'Z'), nil
}

// appendTwoDigits appends the last two decimal digits of v >= 0.
func appendTwoDigits(b []byte, v int) []byte {
	return append(b, byte('0'+v/10%10), byte('0'+v%10))
}

var errNotP256 = errors.New("certgen: public key is not a P-256 point")

// appendSPKI appends the SubjectPublicKeyInfo of the P-256 key pub, the
// bytes x509.MarshalPKIXPublicKey writes for it.
func appendSPKI(b []byte, pub *ecdsa.PublicKey) ([]byte, error) {
	if pub == nil || pub.Curve != elliptic.P256() || pub.X == nil || pub.Y == nil ||
		pub.X.Sign() < 0 || pub.Y.Sign() < 0 ||
		pub.X.BitLen() > 8*p256CoordinateBytes || pub.Y.BitLen() > 8*p256CoordinateBytes {
		return nil, errNotP256
	}
	b = append(b, derP256SPKIPrefix...)
	b = append(b, make([]byte, 2*p256CoordinateBytes)...)
	point := b[len(b)-2*p256CoordinateBytes:]
	pub.X.FillBytes(point[:p256CoordinateBytes])
	pub.Y.FillBytes(point[p256CoordinateBytes:])
	return b, nil
}

// appendExtensions appends the [3] extensions of tpl, in the order KeyUsage,
// BasicConstraints, SKID, AKID, SAN, EKU, NameConstraints, AIA, or nothing
// when tpl has none.
func appendExtensions(b []byte, tpl *Template) ([]byte, error) {
	b, explicit := begin(b, tagExtensions)
	b, list := begin(b, tagSequence)
	var ext extension
	if tpl.IncludeKeyUsage {
		b, ext = beginExtension(b, oidKeyUsage, true)
		bits, n := keyUsageBits(tpl.KeyUsage)
		b = append(b, tagBitString, byte(1+(n+7)/8), byte((8-n%8)%8)) // unused bits
		b = append(b, bits[:(n+7)/8]...)
		b = ext.end(b)
	}
	if tpl.IncludeBasicConstraints {
		var seq int
		b, ext = beginExtension(b, oidBasicConstraints, true)
		b, seq = begin(b, tagSequence)
		if tpl.IsCA {
			b = append(b, derBooleanTrue...)
		}
		// A pathLenConstraint of -1 is encoding/asn1's default and is
		// left out like an absent one.
		if tpl.HasPathLen && tpl.MaxPathLen != -1 {
			b = appendSmallInt(b, int64(tpl.MaxPathLen))
		}
		b = ext.end(end(b, seq))
	}
	if tpl.SKID != nil {
		b, ext = beginExtension(b, oidSubjectKeyID, false)
		b = appendTLV(b, tagOctetString, tpl.SKID)
		b = ext.end(b)
	}
	if tpl.AKID != nil {
		var seq int
		b, ext = beginExtension(b, oidAuthorityKeyID, false)
		b, seq = begin(b, tagSequence)
		b = appendTLV(b, tagKeyIdentifier, tpl.AKID)
		b = ext.end(end(b, seq))
	}
	if len(tpl.DNSNames) > 0 || len(tpl.IPAddresses) > 0 {
		var seq int
		b, ext = beginExtension(b, oidSubjectAltName, false)
		b, seq = begin(b, tagSequence)
		for _, name := range tpl.DNSNames {
			b = appendTLV(b, tagDNSName, name)
		}
		for _, ip := range tpl.IPAddresses {
			if v4 := ip.To4(); v4 != nil {
				ip = v4
			} else {
				ip = ip.To16()
			}
			b = appendTLV(b, tagIPAddress, ip)
		}
		b = ext.end(end(b, seq))
	}
	if len(tpl.ExtKeyUsages) > 0 {
		var seq int
		b, ext = beginExtension(b, oidExtendedKeyUsage, false)
		b, seq = begin(b, tagSequence)
		for _, e := range tpl.ExtKeyUsages {
			b = append(b, ekuOID(e)...)
		}
		b = ext.end(end(b, seq))
	}
	if len(tpl.PermittedDNSDomains) > 0 || len(tpl.ExcludedDNSDomains) > 0 {
		var seq int
		var err error
		b, ext = beginExtension(b, oidNameConstraints, true)
		b, seq = begin(b, tagSequence)
		if b, err = appendSubtrees(b, tagPermitted, tpl.PermittedDNSDomains); err != nil {
			return nil, err
		}
		if b, err = appendSubtrees(b, tagExcluded, tpl.ExcludedDNSDomains); err != nil {
			return nil, err
		}
		b = ext.end(end(b, seq))
	}
	if len(tpl.AIAIssuerURLs) > 0 {
		var seq, ad int
		b, ext = beginExtension(b, oidAuthorityInfo, false)
		b, seq = begin(b, tagSequence)
		for _, u := range tpl.AIAIssuerURLs {
			b, ad = begin(b, tagSequence)
			b = append(b, oidCAIssuers...)
			b = appendTLV(b, tagURI, u)
			b = end(b, ad)
		}
		b = ext.end(end(b, seq))
	}
	if len(b) == list {
		return b[:explicit-2], nil
	}
	return end(end(b, list), explicit), nil
}

// extension marks an Extension under construction: the content of its
// SEQUENCE and of its extnValue OCTET STRING.
type extension struct{ seq, value int }

// beginExtension opens an Extension with the given identifier and
// criticality (FALSE, the default, is left out) up to its value.
func beginExtension(b []byte, oid string, critical bool) ([]byte, extension) {
	var e extension
	b, e.seq = begin(b, tagSequence)
	b = append(b, oid...)
	if critical {
		b = append(b, derBooleanTrue...)
	}
	b, e.value = begin(b, tagOctetString)
	return b, e
}

// end closes the extension's value and then the extension.
func (e extension) end(b []byte) []byte {
	return end(end(b, e.value), e.seq)
}

// appendSubtrees appends the dNSName GeneralSubtrees of a NameConstraints
// list under tag, or nothing for an empty list. A name is typed as a
// directory string would be, so one that is not valid UTF-8 is an error.
func appendSubtrees(b []byte, tag byte, domains []string) ([]byte, error) {
	if len(domains) == 0 {
		return b, nil
	}
	b, list := begin(b, tag)
	for _, d := range domains {
		if _, err := stringTag(d); err != nil {
			return nil, fmt.Errorf("certgen: name constraint: %w", err)
		}
		var subtree int
		b, subtree = begin(b, tagSequence)
		b = appendTLV(b, tagDNSName, d)
		b = end(b, subtree)
	}
	return end(b, list), nil
}

// keyUsageBits lays the KeyUsage bits out as an ASN.1 BIT STRING, bit 0
// (digitalSignature) the most significant bit of the first byte, and
// returns the bytes and the number of bits up to the last set one. An empty
// usage is one zero bit.
func keyUsageBits(ku certmodel.KeyUsage) (bits [2]byte, n int) {
	n = 1
	for bit := 0; bit < 9; bit++ {
		if ku&(1<<bit) != 0 {
			bits[bit/8] |= 0x80 >> (bit % 8)
			n = bit + 1
		}
	}
	return bits, n
}
