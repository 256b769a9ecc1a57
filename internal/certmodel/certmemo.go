package certmodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"sync/atomic"
)

// CertMemo remembers parsed certificates by the SHA-256 of their DER, so a
// PEM bundle whose blocks were parsed before costs a fingerprint and a table
// lookup per certificate instead of an x509.ParseCertificate. A service that
// grades pasted chains sees few distinct certificates: the Top-1M presents
// only a few thousand distinct lists, hanging off a far smaller set of
// intermediates.
//
// Soundness: a hit requires an equal fingerprint and bit-for-bit equal DER,
// and returns what ParseDER returned for those bytes. A failed parse is never
// stored, so every input is accepted or rejected exactly as ParseDER would
// (X.509 parsers disagree on hostile encodings; this memo never decides one).
// A memoized certificate is shared: it may stand in many lists, and at
// several positions of one list, where fresh parses would give equal copies.
// Nothing mutates a parsed certificate, so sharing changes no answer. A
// stored certificate owns its DER: it never aliases the caller's input.
//
// Bound: the table is fixed at certMemoSets sets of two ways, that is 256
// certificates. A new certificate enters way 0 of its set and pushes the
// previous way-0 entry to way 1, evicting the old way-1 entry, so untrusted
// input (chainserved's request bodies) can evict entries but never grow the
// table, and two certificates that share a set never evict each other. A
// parsed P-256 leaf with its x509.Certificate keeps about 3.9 KB alive, so a
// full memo retains about 1 MB. Entries are immutable and published through
// atomic pointers, with their fingerprints cached before they are published:
// readers take no lock, and racing inserts may drop an entry but never mix
// two.
//
// Capacity, not policy, sets the miss rate: perfbench's serve workload sends
// about 1,035 distinct leaves in a run to these 256 entries and misses about
// 12,000 of its ~106,700 lookups, nearly all of them leaves evicted by later
// ones. Moving a way-1 hit to way 0 cut that only to about 11,000, so the
// size, at about 3.9 KB of retained memory per extra entry, is the lever.
//
// The zero value is an empty memo; a nil *CertMemo stores nothing.
type CertMemo struct {
	sets [certMemoSets][2]atomic.Pointer[Certificate]
}

// certMemoSets is the memo's fixed set count (two ways each, 256 entries).
const certMemoSets = 128

// lookup returns the certificate the memo holds for der, or nil, and der's
// fingerprint either way. It allocates nothing and keeps no reference to der.
func (m *CertMemo) lookup(der []byte) (*Certificate, FP) {
	fp := FP(sha256.Sum256(der))
	set := &m.sets[binary.LittleEndian.Uint64(fp[:8])&(certMemoSets-1)]
	for i := range set {
		if c := set[i].Load(); c != nil && c.Fingerprint() == fp && bytes.Equal(c.Raw, der) {
			return c, fp
		}
	}
	return nil, fp
}

// store parses der, whose fingerprint is fp, and remembers the result. The
// certificate aliases der, so der must belong to no one else. Its
// fingerprint is cached already, so ListDigest and the verdict memo's key
// hash nothing a second time.
func (m *CertMemo) store(fp FP, der []byte) (*Certificate, error) {
	c, err := ParseDER(der)
	if err != nil {
		return nil, err
	}
	c.setFingerprint(fp)
	set := &m.sets[binary.LittleEndian.Uint64(fp[:8])&(certMemoSets-1)]
	set[1].Store(set[0].Load())
	set[0].Store(c)
	return c, nil
}

// parse returns the certificate der encodes, from the memo when it holds der.
// der must belong to no one else: a miss stores a certificate aliasing it.
func (m *CertMemo) parse(der []byte) (*Certificate, error) {
	if m == nil {
		return ParseDER(der)
	}
	c, fp := m.lookup(der)
	if c != nil {
		return c, nil
	}
	return m.store(fp, der)
}

// pemScratch bounds the DER a canonical block may decode to on the stack; a
// larger certificate goes through pem.Decode.
const pemScratch = 4096

// parseCanonical parses the CERTIFICATE block at the start of data when it is
// in the form pem.EncodeToMemory writes, and returns the input after it. The
// block's DER is decoded into a stack buffer, so a memo hit allocates
// nothing, and a miss copies the DER once for the certificate to own. ok is
// false, and nothing is parsed, for any other input: pem.Decode decides it.
func (m *CertMemo) parseCanonical(data []byte) (c *Certificate, rest []byte, ok bool, err error) {
	var scratch [pemScratch]byte
	der, rest, ok := decodeCanonicalPEM(scratch[:], data)
	if !ok {
		return nil, nil, false, nil
	}
	c, fp := m.lookup(der)
	if c == nil {
		c, err = m.store(fp, bytes.Clone(der))
	}
	return c, rest, true, err
}

const (
	pemCertBegin = "-----BEGIN CERTIFICATE-----"
	pemCertEnd   = "\n-----END CERTIFICATE-----"
)

// decodeCanonicalPEM decodes the CERTIFICATE block at the start of data into
// dst when the block is in the form pem.EncodeToMemory writes:
// "-----BEGIN CERTIFICATE-----\n", lines of base64, and
// "\n-----END CERTIFICATE-----" followed by "\n" or the end of data. The
// base64 decoder rejects every byte outside its alphabet but the '\r' and
// '\n' it skips, so no header line, space or other boundary can hide between
// the two lines: pem.Decode would take the same base64 bytes, decode the same
// DER and return the same rest. ok is false when the block has any other
// form, its base64 does not decode, or its DER may not fit in dst.
func decodeCanonicalPEM(dst, data []byte) (der, rest []byte, ok bool) {
	const begin = pemCertBegin + "\n"
	if !bytes.HasPrefix(data, []byte(begin)) {
		return nil, nil, false
	}
	body := data[len(begin):]
	end := bytes.Index(body, []byte(pemCertEnd))
	if end < 0 {
		return nil, nil, false
	}
	b64, rest := body[:end], body[end+len(pemCertEnd):]
	if len(rest) > 0 {
		if rest[0] != '\n' {
			return nil, nil, false
		}
		rest = rest[1:]
	}
	if base64.StdEncoding.DecodedLen(len(b64)) > len(dst) {
		return nil, nil, false
	}
	n, err := base64.StdEncoding.Decode(dst, b64)
	if err != nil {
		return nil, nil, false
	}
	return dst[:n], rest, true
}
