package certmodel

import (
	"hash/maphash"
	"sync/atomic"
)

// nameSeed seeds every name key. It is drawn per process: no output
// depends on a key's value, only on which names share one.
var nameSeed = maphash.MakeSeed()

// nameKey returns a 64-bit hash of n, the fixed-size index key for a
// distinguished name. Equal names have equal keys; distinct names almost
// never share one, but may, so an index keyed by it confirms the full name
// on every hit. Hashing the key once per certificate (SubjectKey,
// IssuerKey) replaces hashing four strings on every lookup of a
// Name-keyed map.
func nameKey(n Name) uint64 {
	var h maphash.Hash
	h.SetSeed(nameSeed)
	for _, s := range [...]string{n.CommonName, n.Organization, n.OrganizationalUnit, n.Country} {
		h.WriteString(s)
		h.WriteByte(0)
	}
	return h.Sum64()
}

// SubjectKey returns the 64-bit name key of c.Subject (see nameKey),
// computed once and cached like the fingerprint; callers must not mutate
// Subject after the first call.
func (c *Certificate) SubjectKey() uint64 { return cachedNameKey(&c.subjectKey, c.Subject) }

// IssuerKey returns the name key of c.Issuer, computed once and cached;
// callers must not mutate Issuer after the first call. A certificate's
// IssuerKey equals its issuer's SubjectKey.
func (c *Certificate) IssuerKey() uint64 { return cachedNameKey(&c.issuerKey, c.Issuer) }

// cachedNameKey reads a key cache, filling it on first use. Zero marks an
// empty cache, so a name whose key is zero is rehashed on every call, which
// costs time and never a wrong answer. Racing initializers store the same
// value.
func cachedNameKey(cache *atomic.Uint64, n Name) uint64 {
	if k := cache.Load(); k != 0 {
		return k
	}
	k := nameKey(n)
	cache.Store(k)
	return k
}

// KeyIDPrefix is the fixed-size index key for a key identifier: its first
// 8 bytes, zero-padded. An index keyed by it inserts without copying the
// identifier, as a map[string] insert would. Identifiers that share their
// first 8 bytes share a key, so an index keyed by KeyIDPrefix confirms the
// full identifier on every hit.
type KeyIDPrefix [8]byte

// KeyIDPrefixOf returns the KeyIDPrefix of id.
func KeyIDPrefixOf(id []byte) (k KeyIDPrefix) {
	copy(k[:], id)
	return k
}
