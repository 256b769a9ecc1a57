package certmodel

import (
	"bytes"
	"crypto/sha256"
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
// Nothing mutates a parsed certificate, so sharing changes no answer.
//
// Bound: the table is fixed at certMemoSets sets of two ways, that is 256
// certificates. A new certificate enters way 0 of its set and pushes the
// previous way-0 entry to way 1, evicting the old way-1 entry, so untrusted
// input (chainserved's request bodies) can evict entries but never grow the
// table, and two certificates that share a set never evict each other. A
// parsed P-256 leaf with its x509.Certificate keeps about 3.9 KB alive, so a
// full memo retains about 1 MB. Entries are immutable and published through
// atomic pointers: readers take no lock, and racing inserts may drop an
// entry but never mix two.
//
// The zero value is an empty memo; a nil *CertMemo stores nothing.
type CertMemo struct {
	sets [certMemoSets][2]atomic.Pointer[certMemoEntry]
}

// certMemoSets is the memo's fixed set count (two ways each, 256 entries).
const certMemoSets = 128

// certMemoEntry is one remembered parse.
type certMemoEntry struct {
	fp   FP
	cert *Certificate
}

// parse returns the certificate der encodes, from the memo when it holds der.
// A parse it performs carries der's fingerprint already cached, so ListDigest
// and the verdict memo's key hash nothing a second time.
func (m *CertMemo) parse(der []byte) (*Certificate, error) {
	if m == nil {
		return ParseDER(der)
	}
	fp := FP(sha256.Sum256(der))
	set := &m.sets[binary.LittleEndian.Uint64(fp[:8])&(certMemoSets-1)]
	for i := range set {
		if e := set[i].Load(); e != nil && e.fp == fp && bytes.Equal(e.cert.Raw, der) {
			return e.cert, nil
		}
	}
	c, err := ParseDER(der)
	if err != nil {
		return nil, err
	}
	c.fingerprint.Store(&fp)
	set[1].Store(set[0].Load())
	set[0].Store(&certMemoEntry{fp: fp, cert: c})
	return c, nil
}
