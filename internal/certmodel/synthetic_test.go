package certmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// encodeSyntheticRef is the fmt-based encoder that encodeSynthetic replaced,
// kept as the reference the append encoder must reproduce byte for byte.
func encodeSyntheticRef(c *Certificate) []byte {
	sortedCopy := func(in []string) []string {
		out := append([]string(nil), in...)
		sort.Strings(out)
		return out
	}
	var b strings.Builder
	b.WriteString("synthetic-cert/v1\n")
	fmt.Fprintf(&b, "subject=%s\n", c.Subject)
	fmt.Fprintf(&b, "issuer=%s\n", c.Issuer)
	fmt.Fprintf(&b, "serial=%s\n", c.SerialNumber)
	fmt.Fprintf(&b, "notBefore=%d\n", c.NotBefore.Unix())
	fmt.Fprintf(&b, "notAfter=%d\n", c.NotAfter.Unix())
	fmt.Fprintf(&b, "skid=%x\n", c.SubjectKeyID)
	fmt.Fprintf(&b, "akid=%x\n", c.AuthorityKeyID)
	fmt.Fprintf(&b, "keyUsage=%d/%v\n", c.KeyUsage, c.HasKeyUsage)
	fmt.Fprintf(&b, "ca=%v/%v pathLen=%d\n", c.IsCA, c.BasicConstraintsValid, c.MaxPathLen)
	fmt.Fprintf(&b, "dns=%s\n", strings.Join(sortedCopy(c.DNSNames), ","))
	fmt.Fprintf(&b, "ip=%s\n", strings.Join(sortedCopy(c.IPAddresses), ","))
	fmt.Fprintf(&b, "aia=%s\n", strings.Join(c.AIAIssuerURLs, ","))
	fmt.Fprintf(&b, "eku=%v\n", c.ExtKeyUsages)
	fmt.Fprintf(&b, "ncPermit=%s\n", strings.Join(c.PermittedDNSDomains, ","))
	fmt.Fprintf(&b, "ncExclude=%s\n", strings.Join(c.ExcludedDNSDomains, ","))
	fmt.Fprintf(&b, "weakSig=%v\n", c.WeakSignature)
	fmt.Fprintf(&b, "pub=%x\n", c.PublicKeyID)
	fmt.Fprintf(&b, "sig=%x\n", c.SignedByKeyID)
	return []byte(b.String())
}

// nameRef is the strings.Join rendering Name.String replaced.
func nameRef(n Name) string {
	var parts []string
	for _, p := range [][2]string{{"C=", n.Country}, {"O=", n.Organization}, {"OU=", n.OrganizationalUnit}, {"CN=", n.CommonName}} {
		if p[1] != "" {
			parts = append(parts, p[0]+p[1])
		}
	}
	if len(parts) == 0 {
		return "<empty>"
	}
	return strings.Join(parts, ", ")
}

// randomConfig makes SyntheticConfig a quick.Generator input by building it
// from primitive random values.
func randomConfig(r *rand.Rand) SyntheticConfig {
	names := []string{"Alpha CA", "Beta CA", "Gamma Root", "Delta Issuing"}
	nb := base.AddDate(0, -r.Intn(36), 0)
	cfg := SyntheticConfig{
		Subject:               Name{CommonName: names[r.Intn(len(names))], Organization: "Org"},
		Issuer:                Name{CommonName: names[r.Intn(len(names))]},
		Serial:                string(rune('a' + r.Intn(26))),
		NotBefore:             nb,
		NotAfter:              nb.AddDate(r.Intn(10)+1, 0, 0),
		Key:                   NewSyntheticKey(names[r.Intn(len(names))] + "-key"),
		SignedBy:              NewSyntheticKey(names[r.Intn(len(names))] + "-signer"),
		OmitSKID:              r.Intn(4) == 0,
		OmitAKID:              r.Intn(4) == 0,
		KeyUsage:              KeyUsage(r.Intn(128)),
		HasKeyUsage:           r.Intn(2) == 0,
		IsCA:                  r.Intn(2) == 0,
		BasicConstraintsValid: r.Intn(2) == 0,
		MaxPathLen:            r.Intn(4),
		HasPathLen:            r.Intn(3) == 0,
	}
	if r.Intn(3) == 0 {
		cfg.DNSNames = []string{"a.example", "b.example"}
	}
	return cfg
}

// TestQuickSyntheticDeterministic: identical configs yield bit-identical
// certificates — the duplicate detector's foundation.
func TestQuickSyntheticDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randomConfig(r)
		a, b := NewSynthetic(cfg), NewSynthetic(cfg)
		return a.Equal(b) && a.Fingerprint() == b.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeSyntheticMatchesReference: the append encoder emits exactly the
// fmt reference's text, over random configs and the shapes the random configs
// never draw — empty and full names, unsorted and empty SAN lists, unknown
// and negative EKUs, empty and overriding AKIDs, negative path lengths,
// pre-epoch times and bytes that are not UTF-8.
func TestEncodeSyntheticMatchesReference(t *testing.T) {
	check := func(cfg SyntheticConfig) {
		t.Helper()
		c := NewSynthetic(cfg)
		if want := encodeSyntheticRef(c); !bytes.Equal(c.Raw, want) {
			t.Fatalf("encoding differs from the reference:\n got %q\nwant %q", c.Raw, want)
		}
		for _, n := range []Name{c.Subject, c.Issuer} {
			if n.String() != nameRef(n) {
				t.Fatalf("Name.String() = %q, want %q", n.String(), nameRef(n))
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		check(randomConfig(r))
	}
	full := Name{CommonName: "CN", Organization: "O, Inc", OrganizationalUnit: "OU", Country: "TW"}
	check(SyntheticConfig{})
	check(SyntheticConfig{
		Subject: full, Issuer: Name{OrganizationalUnit: "only-ou"},
		Serial:    "\xff\x00serial\n",
		NotBefore: time.Unix(-62135596800, 0), NotAfter: time.Unix(1<<40, 0),
		Key: NewSyntheticKey("k"), SignedBy: NewSyntheticKey("s"),
		AKIDOverride: []byte{}, KeyUsage: 0xffff, HasKeyUsage: true,
		IsCA: true, MaxPathLen: -7, HasPathLen: true,
		DNSNames:            []string{"z.example", "a.example", "", "m.example"},
		IPAddresses:         []string{"10.0.0.2", "10.0.0.1"},
		AIAIssuerURLs:       []string{"http://b", "http://a"},
		ExtKeyUsages:        []ExtKeyUsage{EKUAny, EKUServerAuth, 99, -1, EKUOCSPSigning},
		PermittedDNSDomains: []string{".b", ".a"},
		ExcludedDNSDomains:  []string{""},
		WeakSignature:       true,
	})
	check(SyntheticConfig{Subject: Name{Country: "US"}, AKIDOverride: []byte{0, 0xff}, ExtKeyUsages: []ExtKeyUsage{}})

	// A leaf minted by SyntheticLeaf, which passes its DNS name beside the
	// config, is the certificate NewSynthetic makes of the whole config.
	parent := SyntheticRoot("Leaf Parent", base)
	for _, aia := range [][]string{nil, {"http://aia.example/ca.der"}, {"http://a", "http://b", "http://c"}} {
		leaf := SyntheticLeaf("leaf.example", "7", parent, base, base.AddDate(1, 0, 0), aia...)
		check(SyntheticConfigOf(leaf))
		whole := NewSynthetic(SyntheticConfig{
			Subject: Name{CommonName: "leaf.example"}, Issuer: parent.Subject, Serial: "7",
			NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: NewSyntheticKey("leaf:leaf.example:7"), SignedBy: KeyOf(parent),
			KeyUsage: KeyUsageDigitalSignature | KeyUsageKeyEncipherment, HasKeyUsage: true,
			BasicConstraintsValid: true, DNSNames: []string{"leaf.example"}, AIAIssuerURLs: aia,
		})
		if !bytes.Equal(leaf.Raw, whole.Raw) {
			t.Fatalf("SyntheticLeaf with %d URIs:\n got %q\nwant %q", len(aia), leaf.Raw, whole.Raw)
		}
	}
}

// TestSyntheticListsOwned: a synthetic certificate's lists and key
// identifiers are its own, whether carved from its allocation or, past
// blockStrings strings, copied on their own. Changing the config after
// construction changes nothing, and an append to one list writes into no
// other.
func TestSyntheticListsOwned(t *testing.T) {
	for _, n := range []int{1, blockStrings, blockStrings + 1} {
		dns := make([]string, n)
		for i := range dns {
			dns[i] = fmt.Sprintf("host-%d.example", i)
		}
		cfg := SyntheticConfig{
			Subject: Name{CommonName: "owned.example"}, Serial: "1",
			Key: NewSyntheticKey("owned"), SignedBy: NewSyntheticKey("owner"),
			DNSNames: dns, AIAIssuerURLs: []string{"http://aia.example"},
			PermittedDNSDomains: []string{".example"},
		}
		c := NewSynthetic(cfg)
		raw := bytes.Clone(c.Raw)
		for _, ss := range [][]string{c.DNSNames, c.AIAIssuerURLs, c.PermittedDNSDomains} {
			if cap(ss) != len(ss) {
				t.Fatalf("%d names: a list of %d has capacity %d", n, len(ss), cap(ss))
			}
		}
		_ = append(c.DNSNames, "appended.example")
		_ = append(c.AIAIssuerURLs, "http://appended")
		_ = append(c.SubjectKeyID, 0xff)
		dns[0], cfg.AIAIssuerURLs[0], cfg.PermittedDNSDomains[0] = "changed", "changed", "changed"
		if got := encodeSynthetic(c); !bytes.Equal(got, raw) {
			t.Fatalf("%d names: certificate changed after construction:\n got %q\nwant %q", n, got, raw)
		}
		if !bytes.Equal(c.SubjectKeyID, cfg.Key.ID()) || !bytes.Equal(c.AuthorityKeyID, cfg.SignedBy.ID()) {
			t.Fatalf("%d names: key identifiers %x/%x, want %x/%x", n, c.SubjectKeyID, c.AuthorityKeyID, cfg.Key.ID(), cfg.SignedBy.ID())
		}
	}
}

// TestLeafAllocs: a minted leaf takes three allocations — the serial its
// caller builds, the certificate with its key identifiers and lists, and
// Raw — with its caIssuers URI.
func TestLeafAllocs(t *testing.T) {
	parent := SyntheticRoot("Alloc Parent", base)
	aia := []string{"http://aia.example/ca.der"}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n++
		sinkCert = SyntheticLeaf("alloc.example", strconv.Itoa(1000+n), parent, base, base.AddDate(1, 0, 0), aia...)
	})
	if allocs > 3 {
		t.Errorf("a minted leaf allocates %.0f times, want at most 3", allocs)
	}
}

var sinkCert *Certificate

// TestQuickSerialChangesBytes: any serial difference changes the encoding.
func TestQuickSerialChangesBytes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randomConfig(r)
		a := NewSynthetic(cfg)
		cfg.Serial += "x"
		b := NewSynthetic(cfg)
		return !a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIssuanceConsistency: a child built with SignedBy=parent's key and
// Issuer=parent's subject is always Issued by the parent, and never by an
// unrelated root.
func TestQuickIssuanceConsistency(t *testing.T) {
	stranger := SyntheticRoot("Quick Stranger", base)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parent := SyntheticRoot("Quick Parent", base.AddDate(-r.Intn(5), 0, 0))
		cfg := randomConfig(r)
		cfg.Issuer = parent.Subject
		cfg.SignedBy = KeyOf(parent)
		cfg.OmitAKID = false
		cfg.AKIDOverride = nil
		child := NewSynthetic(cfg)
		return Issued(parent, child) && !Issued(stranger, child)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSyntheticKeyDerivation(t *testing.T) {
	a, b := NewSyntheticKey("same"), NewSyntheticKey("same")
	if !bytes.Equal(a.ID(), b.ID()) {
		t.Error("same name, different key ids")
	}
	c := NewSyntheticKey("different")
	if bytes.Equal(a.ID(), c.ID()) {
		t.Error("different names share a key id")
	}
	if len(a.ID()) != 20 {
		t.Errorf("key id length = %d", len(a.ID()))
	}
	var zero SyntheticKey
	if !zero.IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestSyntheticFieldControls(t *testing.T) {
	key, signer := NewSyntheticKey("fc-key"), NewSyntheticKey("fc-signer")
	mk := func(mut func(*SyntheticConfig)) *Certificate {
		cfg := SyntheticConfig{
			Subject: Name{CommonName: "FC"}, Issuer: Name{CommonName: "FC Issuer"},
			Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: key, SignedBy: signer,
		}
		if mut != nil {
			mut(&cfg)
		}
		return NewSynthetic(cfg)
	}

	plain := mk(nil)
	if !bytes.Equal(plain.SubjectKeyID, key.ID()) || !bytes.Equal(plain.AuthorityKeyID, signer.ID()) {
		t.Error("default SKID/AKID not derived from keys")
	}
	if plain.MaxPathLen != MaxPathLenUnset {
		t.Errorf("default MaxPathLen = %d", plain.MaxPathLen)
	}

	noSKID := mk(func(c *SyntheticConfig) { c.OmitSKID = true })
	if noSKID.SubjectKeyID != nil {
		t.Error("OmitSKID ignored")
	}
	noAKID := mk(func(c *SyntheticConfig) { c.OmitAKID = true })
	if noAKID.AuthorityKeyID != nil {
		t.Error("OmitAKID ignored")
	}
	override := mk(func(c *SyntheticConfig) { c.AKIDOverride = []byte{1, 2, 3} })
	if !bytes.Equal(override.AuthorityKeyID, []byte{1, 2, 3}) {
		t.Error("AKIDOverride ignored")
	}
	pl0 := mk(func(c *SyntheticConfig) { c.HasPathLen = true; c.MaxPathLen = 0 })
	if pl0.MaxPathLen != 0 {
		t.Errorf("pathlen 0 lost: %d", pl0.MaxPathLen)
	}

	// Each control changes the encoding.
	for i, v := range []*Certificate{noSKID, noAKID, override, pl0} {
		if v.Equal(plain) {
			t.Errorf("variant %d encodes identically to the plain cert", i)
		}
	}
}

func TestKeyOfLinksBack(t *testing.T) {
	root := SyntheticRoot("KeyOf Root", base)
	cross := NewSynthetic(SyntheticConfig{
		Subject: root.Subject, Issuer: Name{CommonName: "Legacy"},
		Serial: "x", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: KeyOf(root), SignedBy: NewSyntheticKey("legacy-key"),
	})
	if !bytes.Equal(cross.PublicKeyID, root.PublicKeyID) {
		t.Error("KeyOf did not preserve the key identity")
	}
	leaf := SyntheticLeaf("keyof.example", "1", root, base, base.AddDate(1, 0, 0))
	// Both the root and its cross-signed variant verify the leaf: the
	// cross-signing property the population relies on.
	if !leaf.SignatureVerifiedBy(root) || !leaf.SignatureVerifiedBy(cross) {
		t.Error("cross-signed variant does not verify the same children")
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	in := []string{"b", "a", "c"}
	out := sorted(in)
	if !reflect.DeepEqual(out, []string{"a", "b", "c"}) {
		t.Errorf("sorted = %v", out)
	}
	if !reflect.DeepEqual(in, []string{"b", "a", "c"}) {
		t.Errorf("input mutated: %v", in)
	}
}

func TestSyntheticRootHelpers(t *testing.T) {
	root := SyntheticRoot("Helper Root", base)
	if !root.IsCA || !root.BasicConstraintsValid || !root.SelfSigned() {
		t.Error("SyntheticRoot shape wrong")
	}
	inter := SyntheticIntermediate("Helper CA", root, base)
	if !Issued(root, inter) {
		t.Error("intermediate not issued by root")
	}
	leaf := SyntheticLeaf("helper.example", "1", inter, base, base.AddDate(1, 0, 0))
	if !Issued(inter, leaf) || leaf.IsCA {
		t.Error("leaf shape wrong")
	}
	if !leaf.MatchesDomain("helper.example") {
		t.Error("leaf does not match its own domain")
	}
	if leaf.NotAfter != base.AddDate(1, 0, 0) {
		t.Error("leaf validity wrong")
	}
}

// TestSyntheticConfigOfRoundTrip: NewSynthetic(SyntheticConfigOf(c)) must
// reproduce c bit-identically for every shape of synthetic certificate the
// generator and the fuzzer's mutation operators produce — including omitted
// key IDs, AKID overrides, path-length constraints, and name constraints.
func TestSyntheticConfigOfRoundTrip(t *testing.T) {
	base := time.Date(2024, 3, 15, 12, 0, 0, 0, time.UTC)
	root := SyntheticRoot("Round Trip Root", base)
	inter := SyntheticIntermediate("Round Trip CA", root, base)
	leaf := SyntheticLeaf("rt.example", "rt-1", inter, base, base.AddDate(1, 0, 0))

	variants := []*Certificate{
		root, inter, leaf,
		NewSynthetic(SyntheticConfig{
			Subject:   Name{CommonName: "No KID CA"},
			Issuer:    root.Subject,
			Serial:    "nokid",
			NotBefore: base,
			NotAfter:  base.AddDate(2, 0, 0),
			Key:       NewSyntheticKey("nokid"),
			SignedBy:  KeyOf(root),
			OmitSKID:  true,
			OmitAKID:  true,
			IsCA:      true, BasicConstraintsValid: true,
		}),
		NewSynthetic(SyntheticConfig{
			Subject:      Name{CommonName: "AKID Mismatch"},
			Issuer:       root.Subject,
			Serial:       "badakid",
			NotBefore:    base,
			NotAfter:     base.AddDate(2, 0, 0),
			Key:          NewSyntheticKey("badakid"),
			SignedBy:     KeyOf(root),
			AKIDOverride: []byte("not-the-signer-id-20"),
			MaxPathLen:   0, HasPathLen: true,
			IsCA: true, BasicConstraintsValid: true,
			PermittedDNSDomains: []string{".example"},
			ExcludedDNSDomains:  []string{".forbidden.example"},
			ExtKeyUsages:        []ExtKeyUsage{EKUServerAuth},
			WeakSignature:       true,
		}),
	}
	for _, want := range variants {
		got := NewSynthetic(SyntheticConfigOf(want))
		if !got.Equal(want) {
			t.Errorf("%s: round trip differs:\n got %s\nwant %s",
				want.Subject.CommonName, got.Raw, want.Raw)
		}
	}
}

// TestKeyFromID: the wrapped key must carry the exact identifier and be
// usable as a signer, and the zero cases must collapse to the zero key.
func TestKeyFromID(t *testing.T) {
	orig := NewSyntheticKey("from-id")
	k := KeyFromID(orig.ID())
	if !bytes.Equal(k.ID(), orig.ID()) {
		t.Fatalf("KeyFromID id = %x, want %x", k.ID(), orig.ID())
	}
	if !KeyFromID(nil).IsZero() || !KeyFromID([]byte{}).IsZero() {
		t.Fatal("KeyFromID of empty input must be the zero key")
	}
}
