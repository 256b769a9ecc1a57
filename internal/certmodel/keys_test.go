package certmodel

import (
	"sync"
	"testing"
)

// TestNameKeys: equal names have equal keys whichever certificate caches
// them, the names a chain links (issuer to subject) share a key, distinct
// names get distinct keys, and goroutines reading one certificate's keys
// at once all see the same values.
func TestNameKeys(t *testing.T) {
	root := SyntheticRoot("Keys Root", base)
	ca := SyntheticIntermediate("Keys CA", root, base)
	leaf := SyntheticLeaf("keys.example", "1", ca, base, base.AddDate(1, 0, 0))
	if ca.IssuerKey() != root.SubjectKey() || leaf.IssuerKey() != ca.SubjectKey() {
		t.Error("a certificate's IssuerKey differs from its issuer's SubjectKey")
	}
	if root.SubjectKey() != root.IssuerKey() {
		t.Error("a root's subject and issuer keys differ")
	}
	names := []Name{
		{},
		{CommonName: "a"},
		{CommonName: "a", Organization: "b"},
		{CommonName: "ab"},
		{Organization: "a"},
		{CommonName: "a", Country: "b"},
		ca.Subject, leaf.Subject,
	}
	seen := map[uint64]Name{}
	for _, n := range names {
		k := nameKey(n)
		if k != nameKey(n) {
			t.Errorf("%v: key not stable", n)
		}
		if o, dup := seen[k]; dup {
			t.Errorf("%v and %v share key %x", o, n, k)
		}
		seen[k] = n
	}

	fresh := SyntheticIntermediate("Keys CA", root, base)
	want := [2]uint64{nameKey(fresh.Subject), nameKey(fresh.Issuer)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := [2]uint64{fresh.SubjectKey(), fresh.IssuerKey()}; got != want {
				t.Errorf("concurrent keys %x, want %x", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestKeyIDPrefix: the prefix is the identifier's first 8 bytes,
// zero-padded, so identifiers that agree on those bytes share it.
func TestKeyIDPrefix(t *testing.T) {
	cases := []struct {
		a, b  string
		share bool
	}{
		{"ab", "ab\x00", true},
		{"ab", "ab\x00\x00\x00\x00\x00\x00", true},
		{"PREFIX01a", "PREFIX01b", true},
		{"PREFIX01", "PREFIX0", false},
		{"ab", "ac", false},
	}
	for _, tc := range cases {
		if got := KeyIDPrefixOf([]byte(tc.a)) == KeyIDPrefixOf([]byte(tc.b)); got != tc.share {
			t.Errorf("%q and %q share a prefix: %v, want %v", tc.a, tc.b, got, tc.share)
		}
	}
}
