package rootstore

import (
	"bytes"
	"testing"

	"chainchaos/internal/certmodel"
)

// fuzzNames are the subject and issuer names the fuzzer draws from: two
// roots match a certificate by name when they share one.
var fuzzNames = [...]certmodel.Name{
	{CommonName: "Fuzz A"},
	{CommonName: "Fuzz B"},
	{CommonName: "Fuzz A", Organization: "Org"},
	{},
}

// fuzzIDs are the key identifiers the fuzzer draws from. Most share their
// first 8 bytes with another on purpose, zero padding included ("ab" and
// "ab\x00…"), so the SKID index holds prefix neighbours that only the
// full-identifier check tells apart.
var fuzzIDs = [...][]byte{
	[]byte("PREFIX01"),
	[]byte("PREFIX01a"),
	[]byte("PREFIX01b"),
	[]byte("PREFIX0"),
	[]byte("ab"),
	[]byte("ab\x00"),
	[]byte("ab\x00\x00\x00\x00\x00\x00"),
	[]byte("zz-distinct-id"),
}

// fuzzRoot decodes one byte into a self-signed root: a name, a key whose
// identifier is also the SKID (unless the SKID is omitted), and a serial,
// so equal bytes give bit-identical duplicates.
func fuzzRoot(b byte) *certmodel.Certificate {
	name := fuzzNames[b&3]
	key := certmodel.KeyFromID(fuzzIDs[b>>2&7])
	return certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: name, Issuer: name, Serial: string('0' + rune(b>>6)),
		NotBefore: base, NotAfter: base.AddDate(10, 0, 0),
		Key: key, SignedBy: key, OmitSKID: b>>5&1 == 1,
		IsCA: true, BasicConstraintsValid: true,
	})
}

// fuzzChild decodes two bytes into a certificate to look up: an issuer
// name, the key that signed it, and an AKID that may name another key or
// be absent.
func fuzzChild(q0, q1 byte) *certmodel.Certificate {
	cfg := certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "fuzz child"}, Issuer: fuzzNames[q0&3], Serial: "c",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("fuzz child"), SignedBy: certmodel.KeyFromID(fuzzIDs[q0>>2&7]),
		OmitAKID: q0>>5&1 == 1,
	}
	if !cfg.OmitAKID {
		cfg.AKIDOverride = fuzzIDs[q1&7]
	}
	return certmodel.NewSynthetic(cfg)
}

// FuzzStoreIssuers: the keyed indexes answer as a linear scan does. Roots
// match a certificate by name, by SKID, by both or by neither, and their
// SKIDs share 8-byte prefixes on purpose (a 64-bit name-key collision
// cannot be built on purpose; a SKID prefix can). For every lookup, on a
// sealed and on an unsealed store, AppendIssuers and FindIssuers return the
// roots certmodel.Issued accepts, those whose SKID equals the AKID first,
// each group in insertion order; HasIssuer reports whether there is one;
// FindBySKID returns exactly the roots whose SKID equals the identifier.
func FuzzStoreIssuers(f *testing.F) {
	// Three roots under one name with neighbouring SKIDs, queried by AKIDs
	// that equal one, neighbour all, or are absent.
	f.Add([]byte{3, 0x04, 0x08, 0x0c, 0x08, 0x02, 0x04, 0x00, 0x20, 0x00})
	// "ab", "ab\x00" and "ab\x00…" share a zero-padded key.
	f.Add([]byte{4, 0x10, 0x15, 0x19, 0x51, 0x10, 0x05, 0x14, 0x04, 0x18, 0x06})
	// Two name matches under one key, the first without a SKID, the second
	// with a SKID that neighbours the AKID: both are found by name, in
	// insertion order.
	f.Add([]byte{2, 0x24, 0x04, 0x04, 0x02})
	// Duplicates and SKID-less roots.
	f.Add([]byte{5, 0x00, 0x00, 0x20, 0x23, 0x1f, 0x00, 0x00, 0x3f, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] & 15)
		data = data[1:]
		if n > len(data) {
			n = len(data)
		}
		var roots []*certmodel.Certificate // distinct, in insertion order
		unsealed, sealed := New("fuzz"), New("fuzz")
		for _, b := range data[:n] {
			r := fuzzRoot(b)
			unsealed.Add(r)
			sealed.Add(r)
			if !containsFP(roots, r) {
				roots = append(roots, r)
			}
		}
		sealed.Seal()
		all := sealed.All()
		if len(all) != len(roots) {
			t.Fatalf("All holds %d roots, %d distinct added", len(all), len(roots))
		}
		for _, r := range roots {
			if !containsFP(all, r) {
				t.Fatalf("All lacks root %s", r)
			}
		}

		queries := data[n:]
		for i := 0; i+1 < len(queries) && i < 32; i += 2 {
			cert := fuzzChild(queries[i], queries[i+1])
			want := refIssuers(roots, cert)
			wantSKID := refBySKID(roots, cert.AuthorityKeyID)
			for _, s := range []*Store{unsealed, sealed} {
				label := "unsealed"
				if s.Sealed() {
					label = "sealed"
				}
				sentinel := roots[:0:0]
				if len(roots) > 0 {
					sentinel = append(sentinel, roots[0])
				}
				got := s.AppendIssuers(sentinel, cert)
				if len(got) < len(sentinel) || (len(sentinel) > 0 && got[0] != sentinel[0]) {
					t.Fatalf("%s: AppendIssuers dropped dst's prefix", label)
				}
				if !samePointers(got[len(sentinel):], want) {
					t.Fatalf("%s: AppendIssuers(%s) = %v, linear scan %v", label, cert, got[len(sentinel):], want)
				}
				if got := s.FindIssuers(cert); !samePointers(got, want) {
					t.Fatalf("%s: FindIssuers(%s) = %v, linear scan %v", label, cert, got, want)
				}
				if got := s.HasIssuer(cert); got != (len(want) > 0) {
					t.Fatalf("%s: HasIssuer(%s) = %v, linear scan finds %d", label, cert, got, len(want))
				}
				if got := s.FindBySKID(cert.AuthorityKeyID); !samePointers(got, wantSKID) {
					t.Fatalf("%s: FindBySKID(%q) = %v, linear scan %v", label, cert.AuthorityKeyID, got, wantSKID)
				}
			}
		}
	})
}

// refIssuers is the linear-scan reference for AppendIssuers: the roots
// certmodel.Issued accepts, those whose SKID equals cert's AKID first.
func refIssuers(roots []*certmodel.Certificate, cert *certmodel.Certificate) []*certmodel.Certificate {
	var out []*certmodel.Certificate
	if len(cert.AuthorityKeyID) > 0 {
		for _, r := range roots {
			if bytes.Equal(r.SubjectKeyID, cert.AuthorityKeyID) && certmodel.Issued(r, cert) {
				out = append(out, r)
			}
		}
	}
	for _, r := range roots {
		if !containsFP(out, r) && certmodel.Issued(r, cert) {
			out = append(out, r)
		}
	}
	return out
}

// refBySKID is the linear-scan reference for FindBySKID.
func refBySKID(roots []*certmodel.Certificate, akid []byte) []*certmodel.Certificate {
	var out []*certmodel.Certificate
	if len(akid) == 0 {
		return nil
	}
	for _, r := range roots {
		if bytes.Equal(r.SubjectKeyID, akid) {
			out = append(out, r)
		}
	}
	return out
}

func containsFP(list []*certmodel.Certificate, c *certmodel.Certificate) bool {
	for _, x := range list {
		if x.Fingerprint() == c.Fingerprint() {
			return true
		}
	}
	return false
}

func samePointers(a, b []*certmodel.Certificate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
