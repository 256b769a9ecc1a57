package aia

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

// chain builds root -> ca2 -> ca1 with AIA links wired through the given
// repository: ca1's URI serves ca2, ca2's URI serves root.
func chain(repo *Repository) (root, ca2, ca1 *certmodel.Certificate) {
	root = certmodel.SyntheticRoot("AIA Test Root", base)
	ca2 = certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "AIA Test CA2"}, Issuer: root.Subject,
		Serial: "2", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("aia-ca2"), SignedBy: certmodel.KeyOf(root),
		IsCA: true, BasicConstraintsValid: true,
		AIAIssuerURLs: []string{"http://repo/root.der"},
	})
	ca1 = certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "AIA Test CA1"}, Issuer: ca2.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("aia-ca1"), SignedBy: certmodel.KeyOf(ca2),
		IsCA: true, BasicConstraintsValid: true,
		AIAIssuerURLs: []string{"http://repo/ca2.der"},
	})
	if repo != nil {
		repo.Put("http://repo/ca2.der", ca2)
		repo.Put("http://repo/root.der", root)
	}
	return
}

func TestRepository(t *testing.T) {
	repo := NewRepository()
	root, _, _ := chain(nil)
	repo.Put("http://repo/x.der", root)
	got, err := repo.Fetch("http://repo/x.der")
	if err != nil || !got.Equal(root) {
		t.Fatalf("fetch = %v, %v", got, err)
	}
	if _, err := repo.Fetch("http://repo/missing.der"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing fetch err = %v", err)
	}
	repo.PutError("http://repo/x.der", fmt.Errorf("boom"))
	if _, err := repo.Fetch("http://repo/x.der"); err == nil {
		t.Error("PutError ignored")
	}
	if repo.Len() != 0 {
		t.Errorf("len = %d after error replacement", repo.Len())
	}
}

func TestChaseReachesRoot(t *testing.T) {
	repo := NewRepository()
	_, _, ca1 := chain(repo)
	c := &Chaser{Fetcher: repo}
	res := c.Chase(ca1)
	if !res.Completed() || res.Terminal != ReachedRoot {
		t.Fatalf("chase = %+v", res)
	}
	if len(res.Fetched) != 2 {
		t.Errorf("fetched %d certs, want 2 (ca2, root)", len(res.Fetched))
	}
}

func TestChaseStopsAtTrustedIssuer(t *testing.T) {
	repo := NewRepository()
	root, _, ca1 := chain(repo)
	c := &Chaser{
		Fetcher: repo,
		TrustedIssuer: func(cert *certmodel.Certificate) bool {
			// ca2's issuer is the root: pretend a store lookup succeeds.
			return cert.Issuer == root.Subject
		},
	}
	res := c.Chase(ca1)
	if !res.Completed() {
		t.Fatalf("chase = %+v", res)
	}
	if len(res.Fetched) != 1 {
		t.Errorf("fetched %d, want 1 (stop before downloading the root)", len(res.Fetched))
	}
}

func TestChaseNoAIA(t *testing.T) {
	orphan := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "No AIA"}, Issuer: certmodel.Name{CommonName: "Gone CA"},
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("noaia"), SignedBy: certmodel.NewSyntheticKey("gone"),
	})
	c := &Chaser{Fetcher: NewRepository()}
	if res := c.Chase(orphan); res.Terminal != NoAIA || res.Completed() {
		t.Errorf("chase = %+v", res)
	}
}

func TestChaseFetchFailed(t *testing.T) {
	repo := NewRepository()
	repo.PutError("http://repo/dead.der", fmt.Errorf("connection refused"))
	cert := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "Dead AIA"}, Issuer: certmodel.Name{CommonName: "Dead CA"},
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("dead"), SignedBy: certmodel.NewSyntheticKey("dead-ca"),
		AIAIssuerURLs: []string{"http://repo/dead.der"},
	})
	c := &Chaser{Fetcher: repo}
	res := c.Chase(cert)
	if res.Terminal != FetchFailed || res.Err == nil {
		t.Errorf("chase = %+v", res)
	}
}

func TestChaseWrongIssuer(t *testing.T) {
	// The CAcert case: the URI serves the certificate itself rather than
	// its issuer.
	repo := NewRepository()
	self := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "CAcert Class 3"}, Issuer: certmodel.Name{CommonName: "CA Cert Signing Authority"},
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("cacert"), SignedBy: certmodel.NewSyntheticKey("cacert-parent"),
		AIAIssuerURLs: []string{"http://www.cacert.example/class3.crt"},
	})
	repo.Put("http://www.cacert.example/class3.crt", self)
	c := &Chaser{Fetcher: repo}
	if res := c.Chase(self); res.Terminal != WrongIssuer {
		t.Errorf("chase = %+v", res)
	}
}

func TestChaseDepthExceeded(t *testing.T) {
	// A ladder deeper than the chase limit.
	repo := NewRepository()
	parentKey := certmodel.NewSyntheticKey("ladder-0")
	prev := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "Ladder 0"}, Issuer: certmodel.Name{CommonName: "Ladder 1"},
		Serial: "0", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: parentKey, SignedBy: certmodel.NewSyntheticKey("ladder-1"),
		AIAIssuerURLs: []string{"http://repo/ladder/1.der"},
	})
	start := prev
	for i := 1; i <= 5; i++ {
		key := certmodel.NewSyntheticKey(fmt.Sprintf("ladder-%d", i))
		cert := certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: certmodel.Name{CommonName: fmt.Sprintf("Ladder %d", i)},
			Issuer:  certmodel.Name{CommonName: fmt.Sprintf("Ladder %d", i+1)},
			Serial:  fmt.Sprintf("%d", i), NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: key, SignedBy: certmodel.NewSyntheticKey(fmt.Sprintf("ladder-%d", i+1)),
			AIAIssuerURLs: []string{fmt.Sprintf("http://repo/ladder/%d.der", i+1)},
		})
		repo.Put(fmt.Sprintf("http://repo/ladder/%d.der", i), cert)
		prev = cert
	}
	_ = prev
	c := &Chaser{Fetcher: repo, MaxDepth: 3}
	res := c.Chase(start)
	if res.Terminal != DepthExceeded && res.Terminal != FetchFailed {
		t.Errorf("chase terminal = %v", res.Terminal)
	}
}

func TestChaseMultipleURIs(t *testing.T) {
	// First URI dead, second good: the chaser must fall through.
	repo := NewRepository()
	root, ca2, _ := chain(nil)
	cert := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "Multi URI"}, Issuer: ca2.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("multi"), SignedBy: certmodel.KeyOf(ca2),
		AIAIssuerURLs: []string{"http://repo/dead.der", "http://repo/alive.der"},
	})
	repo.PutError("http://repo/dead.der", fmt.Errorf("nope"))
	repo.Put("http://repo/alive.der", ca2)
	repo.Put("http://repo/root.der", root)
	c := &Chaser{Fetcher: repo}
	res := c.Chase(cert)
	if !res.Completed() {
		t.Errorf("chase = %+v", res)
	}
}

// TestChaseTerminalErrClassification pins down the terminal/error matrix:
// which URIs fail and which answer wrongly must be distinguishable from the
// ChaseResult alone — the paper's dead-URI (88 chains, §4.3) vs wrong-cert
// (CAcert) split.
func TestChaseTerminalErrClassification(t *testing.T) {
	repo := NewRepository()
	root, ca2, _ := chain(nil)
	repo.Put("http://repo/root.der", root)
	repo.Put("http://repo/wrong.der", root) // answers, but root did not issue the test certs
	repo.Put("http://repo/ca2.der", ca2)
	repo.PutError("http://repo/dead.der", fmt.Errorf("connection refused"))

	mkCert := func(name string, uris ...string) *certmodel.Certificate {
		return certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: certmodel.Name{CommonName: name}, Issuer: ca2.Subject,
			Serial: "9", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
			Key: certmodel.NewSyntheticKey(name), SignedBy: certmodel.KeyOf(ca2),
			AIAIssuerURLs: uris,
		})
	}

	cases := []struct {
		name     string
		uris     []string
		terminal Terminal
		wantErr  bool
	}{
		{"all-dead", []string{"http://repo/dead.der"}, FetchFailed, true},
		{"wrong-only", []string{"http://repo/wrong.der"}, WrongIssuer, false},
		{"dead-then-wrong", []string{"http://repo/dead.der", "http://repo/wrong.der"}, WrongIssuer, true},
		{"wrong-then-dead", []string{"http://repo/wrong.der", "http://repo/dead.der"}, WrongIssuer, true},
		{"dead-then-good", []string{"http://repo/dead.der", "http://repo/ca2.der"}, ReachedRoot, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			chaser := &Chaser{Fetcher: repo}
			res := chaser.Chase(mkCert("Cls "+c.name, c.uris...))
			if res.Terminal != c.terminal {
				t.Errorf("terminal = %v, want %v", res.Terminal, c.terminal)
			}
			if (res.Err != nil) != c.wantErr {
				t.Errorf("err = %v, want err=%v", res.Err, c.wantErr)
			}
		})
	}
}

func TestTerminalStrings(t *testing.T) {
	for term := ReachedRoot; term <= DepthExceeded; term++ {
		if s := term.String(); s == "" {
			t.Errorf("terminal %d renders empty", int(term))
		}
	}
	if Terminal(42).String() != "terminal(42)" {
		t.Error("unknown terminal rendering wrong")
	}
}
