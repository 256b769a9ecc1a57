package httpserver

import (
	"errors"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	root, inter, leaf, otherLeaf *certmodel.Certificate
}

func newFixture() fixture {
	root := certmodel.SyntheticRoot("HS Root", base)
	inter := certmodel.SyntheticIntermediate("HS CA", root, base)
	leaf := certmodel.SyntheticLeaf("hs.example", "1", inter, base, base.AddDate(1, 0, 0))
	other := certmodel.SyntheticLeaf("other.example", "2", inter, base, base.AddDate(1, 0, 0))
	return fixture{root, inter, leaf, other}
}

func TestSplitSchemeAssembly(t *testing.T) {
	f := newFixture()
	wire, err := ApacheOld().Deploy(ConfigInput{
		CertFile:      []*certmodel.Certificate{f.leaf},
		ChainFile:     []*certmodel.Certificate{f.inter, f.root},
		PrivateKeyFor: f.leaf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 3 || !wire[0].Equal(f.leaf) || !wire[1].Equal(f.inter) || !wire[2].Equal(f.root) {
		t.Errorf("wire = %v", wire)
	}
}

func TestFullchainSchemeIgnoresSplitFiles(t *testing.T) {
	f := newFixture()
	wire, err := Nginx().Deploy(ConfigInput{
		CertFile:      []*certmodel.Certificate{f.otherLeaf}, // ignored by SF2
		Fullchain:     []*certmodel.Certificate{f.leaf, f.inter},
		PrivateKeyFor: f.leaf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 2 || !wire[0].Equal(f.leaf) {
		t.Errorf("wire = %v", wire)
	}
}

// inputFor builds the upload in the model's own file scheme: split models
// receive CertFile+ChainFile, the others one Fullchain of leaf+chain.
func inputFor(m Model, leaf *certmodel.Certificate, chain []*certmodel.Certificate, key *certmodel.Certificate) ConfigInput {
	in := ConfigInput{PrivateKeyFor: key}
	if m.Scheme == SchemeSplit {
		in.CertFile = []*certmodel.Certificate{leaf}
		in.ChainFile = chain
	} else {
		in.Fullchain = append([]*certmodel.Certificate{leaf}, chain...)
	}
	return in
}

func TestPrivateKeyMismatch(t *testing.T) {
	f := newFixture()
	for _, m := range Models() {
		in := inputFor(m, f.leaf, []*certmodel.Certificate{f.inter}, f.otherLeaf)
		if _, err := m.Deploy(in); !errors.Is(err, ErrPrivateKeyMismatch) {
			t.Errorf("%s: err = %v, want key mismatch", m.Name, err)
		}
		in.PrivateKeyFor = nil
		if _, err := m.Deploy(in); !errors.Is(err, ErrPrivateKeyMismatch) {
			t.Errorf("%s: nil key err = %v", m.Name, err)
		}
	}
}

func TestDuplicateLeafChecks(t *testing.T) {
	f := newFixture()
	for _, m := range Models() {
		dupIn := inputFor(m, f.leaf, []*certmodel.Certificate{f.leaf, f.inter}, f.leaf)
		wire, err := m.Deploy(dupIn)
		if m.ChecksDuplicateLeaf {
			if !errors.Is(err, ErrDuplicateLeaf) {
				t.Errorf("%s: duplicate leaf not rejected (err=%v)", m.Name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: deploy failed: %v", m.Name, err)
			continue
		}
		// The duplicate survives on checkless servers.
		dups := 0
		for _, c := range wire {
			if c.Equal(f.leaf) {
				dups++
			}
		}
		if dups != 2 {
			t.Errorf("%s: leaf copies = %d, want 2", m.Name, dups)
		}
	}
}

func TestDuplicateIntermediateNeverCheckedBySurveyedServers(t *testing.T) {
	f := newFixture()
	for _, m := range Models() {
		in := inputFor(m, f.leaf, []*certmodel.Certificate{f.inter, f.inter}, f.leaf)
		if _, err := m.Deploy(in); err != nil {
			t.Errorf("%s: duplicate intermediate rejected: %v (no surveyed server checks this)", m.Name, err)
		}
	}
}

// TestDuplicateIntermediateCheck: Deploy has no duplicate-intermediate
// check, so a repeated intermediate or root reaches the wire verbatim.
func TestDuplicateIntermediateCheck(t *testing.T) {
	f := newFixture()
	lax := Model{Name: "Lax", Scheme: SchemeFullchain}
	cases := []struct {
		name  string
		chain []*certmodel.Certificate
	}{
		{"lax/dup-intermediate", []*certmodel.Certificate{f.inter, f.inter}},
		{"lax/dup-root", []*certmodel.Certificate{f.inter, f.root, f.root}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := lax.Deploy(inputFor(lax, f.leaf, tc.chain, f.leaf))
			if err != nil {
				t.Fatalf("deploy failed: %v", err)
			}
			if len(wire) != 1+len(tc.chain) {
				t.Errorf("wire length = %d, want %d", len(wire), 1+len(tc.chain))
			}
		})
	}
}

// TestSplitSchemeRejectsFullchain: handing a Fullchain to a split-scheme
// server is a misconfiguration that used to be silently ignored (the server
// deployed only the split files while the administrator believed the chain
// was configured); it now fails loudly.
func TestSplitSchemeRejectsFullchain(t *testing.T) {
	f := newFixture()
	for _, m := range []Model{ApacheOld(), AWSELB()} {
		in := ConfigInput{
			CertFile:      []*certmodel.Certificate{f.leaf},
			ChainFile:     []*certmodel.Certificate{f.inter},
			Fullchain:     []*certmodel.Certificate{f.leaf, f.inter},
			PrivateKeyFor: f.leaf,
		}
		if _, err := m.Deploy(in); !errors.Is(err, ErrSchemeMismatch) {
			t.Errorf("%s: err = %v, want ErrSchemeMismatch", m.Name, err)
		}
		// Fullchain alone (no split files) is equally wrong for SF1.
		in.CertFile, in.ChainFile = nil, nil
		if _, err := m.Deploy(in); !errors.Is(err, ErrSchemeMismatch) {
			t.Errorf("%s: fullchain-only err = %v, want ErrSchemeMismatch", m.Name, err)
		}
	}
	// Fullchain-scheme servers still ignore stray split files.
	wire, err := Nginx().Deploy(ConfigInput{
		CertFile:      []*certmodel.Certificate{f.otherLeaf},
		Fullchain:     []*certmodel.Certificate{f.leaf, f.inter},
		PrivateKeyFor: f.leaf,
	})
	if err != nil || len(wire) != 2 {
		t.Errorf("nginx deploy = (%v, %v)", wire, err)
	}
}

func TestEmptyDeploy(t *testing.T) {
	for _, m := range Models() {
		if _, err := m.Deploy(ConfigInput{}); !errors.Is(err, ErrNoCertificates) {
			t.Errorf("%s: empty deploy err = %v", m.Name, err)
		}
	}
}

func TestModelCatalog(t *testing.T) {
	models := Models()
	if len(models) != 6 {
		t.Fatalf("model count = %d", len(models))
	}
	schemes := map[string]FileScheme{
		"Apache(<2.4.8)":                      SchemeSplit,
		"Apache":                              SchemeFullchain,
		"Nginx":                               SchemeFullchain,
		"Microsoft-Azure-Application-Gateway": SchemePFX,
		"IIS":                                 SchemePFX,
		"AWS ELB":                             SchemeSplit,
	}
	for _, m := range models {
		if want, ok := schemes[m.Name]; !ok || m.Scheme != want {
			t.Errorf("%s scheme = %v", m.Name, m.Scheme)
		}
		if !m.ChecksPrivateKeyMatch {
			t.Errorf("%s must check the private key", m.Name)
		}
	}
	if !AzureAppGateway().ChecksDuplicateLeaf || !IIS().ChecksDuplicateLeaf {
		t.Error("Azure and IIS must check duplicate leaves")
	}
	if Apache().ChecksDuplicateLeaf || Nginx().ChecksDuplicateLeaf || AWSELB().ChecksDuplicateLeaf {
		t.Error("only Azure/IIS check duplicate leaves")
	}
	if IIS().AutomaticManagement {
		t.Error("IIS has no automatic certificate management")
	}
	for s := SchemeSplit; s <= SchemePFX; s++ {
		if s.String() == "" {
			t.Errorf("scheme %d renders empty", int(s))
		}
	}
}
