package experiments

import (
	"errors"
	"time"

	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/httpserver"
	"chainchaos/internal/report"
	"chainchaos/internal/topo"
)

// HTTPServerCharacteristics reproduces Table 4 by *probing* each server
// model rather than restating its configuration: a key-mismatched upload and
// a duplicate-leaf upload are attempted against every model and the observed
// acceptance/rejection fills the cells.
func (e *Env) HTTPServerCharacteristics() *report.Table {
	base := time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)
	root := certmodel.SyntheticRoot("T4 Probe Root", base)
	inter := certmodel.SyntheticIntermediate("T4 Probe CA", root, base)
	leaf := certmodel.SyntheticLeaf("probe.example", "1", inter, base, base.AddDate(1, 0, 0))
	otherLeaf := certmodel.SyntheticLeaf("other.example", "2", inter, base, base.AddDate(1, 0, 0))

	t := report.New("Table 4 — SSL deployment characteristics across HTTP servers",
		"Server", "Auto Mgmt", "Cert Fields", "Key/Leaf Match Check", "Dup Leaf Check", "Dup Intermediate/Root Check")
	// probeInput builds the scheme-appropriate upload: split-scheme servers
	// get CertFile+ChainFile, the rest get one Fullchain (Deploy rejects a
	// Fullchain handed to a split-scheme server).
	probeInput := func(m httpserver.Model, chain []*certmodel.Certificate, key *certmodel.Certificate) httpserver.ConfigInput {
		in := httpserver.ConfigInput{PrivateKeyFor: key}
		if m.Scheme == httpserver.SchemeSplit {
			in.CertFile = []*certmodel.Certificate{leaf}
			in.ChainFile = chain
		} else {
			in.Fullchain = append([]*certmodel.Certificate{leaf}, chain...)
		}
		return in
	}
	for _, m := range httpserver.Models() {
		// Probe 1: private key belongs to a different certificate.
		_, err := m.Deploy(probeInput(m, []*certmodel.Certificate{inter}, otherLeaf))
		keyCheck := errors.Is(err, httpserver.ErrPrivateKeyMismatch)

		// Probe 2: duplicate leaf in the upload.
		_, err = m.Deploy(probeInput(m, []*certmodel.Certificate{leaf, inter}, leaf))
		dupLeafCheck := errors.Is(err, httpserver.ErrDuplicateLeaf)

		// Probe 3: duplicate intermediate. Any rejection counts as the
		// check.
		_, err = m.Deploy(probeInput(m, []*certmodel.Certificate{inter, inter}, leaf))
		dupInterCheck := err != nil

		t.Add(m.Name,
			report.Mark(m.AutomaticManagement),
			m.Scheme.String(),
			report.Mark(keyCheck),
			report.Mark(dupLeafCheck),
			report.Mark(dupInterCheck))
	}
	return t
}

// CADeliveryCharacteristics reproduces Table 6 by issuing a certificate from
// every CA profile and inspecting the delivered files: which files exist,
// whether the root is included, and whether the ca-bundle follows the
// issuance order (checked with the topology analyzer, not the profile flag).
func (e *Env) CADeliveryCharacteristics() *report.Table {
	base := time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)
	t := report.New("Table 6 — SSL issuance characteristics by CA/reseller",
		"CA", "Auto Mgmt", "Fullchain File", "Ca-bundle File", "Root Included", "Bundle Order Compliant", "Install Guide")
	for _, p := range ca.Profiles() {
		iss := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: p, Base: base, Tag: "t6"})
		d := iss.Issue("order-probe.example", base, base.AddDate(1, 0, 0), ca.LeafOptions{})

		rootIncluded := false
		for _, c := range d.Bundle {
			if c.Equal(iss.Root) {
				rootIncluded = true
			}
		}
		// Order compliance of the bundle: prepend the leaf and ask the
		// sequential-order rule.
		orderOK := true
		if len(d.Bundle) > 0 {
			orderOK = topo.SequentialOrderOK(append([]*certmodel.Certificate{d.Leaf}, d.Bundle...))
		}
		t.Add(p.Name,
			report.Mark(p.AutomaticManagement),
			report.Mark(len(d.Fullchain) > 0),
			report.Mark(len(d.Bundle) > 0),
			report.Mark(rootIncluded),
			report.Mark(orderOK),
			p.InstallGuide.String())
	}
	return t
}

// TopologyGallery reproduces Figure 2: the four canonical chain topologies
// rendered through the same graph code the analyzers use.
func (e *Env) TopologyGallery() *report.Table {
	base := time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)
	root := certmodel.SyntheticRoot("F2 Root", base)
	top := certmodel.SyntheticIntermediate("F2 CA 2", root, base)
	issuing := certmodel.SyntheticIntermediate("F2 CA 1", top, base)
	leaf := certmodel.SyntheticLeaf("f2.example", "1", issuing, base, base.AddDate(1, 0, 0))
	stranger := certmodel.SyntheticRoot("F2 Stranger", base)

	legacy := certmodel.SyntheticRoot("F2 Legacy Root", base.AddDate(-8, 0, 0))
	cross := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: top.Subject, Issuer: legacy.Subject, Serial: "f2-cross",
		NotBefore: base, NotAfter: base.AddDate(4, 0, 0),
		Key: certmodel.KeyOf(top), SignedBy: certmodel.KeyOf(legacy),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
	})

	cases := []struct {
		label string
		list  []*certmodel.Certificate
	}{
		{"(a) compliant chain", []*certmodel.Certificate{leaf, issuing, top, root}},
		{"(b) irrelevant certificate", []*certmodel.Certificate{leaf, stranger, issuing, top, root}},
		{"(c) cross-signed, multiple paths", []*certmodel.Certificate{leaf, issuing, legacy, cross, top, root}},
		{"(d) duplicated certificates", []*certmodel.Certificate{leaf, issuing, top, root, top, issuing}},
	}
	t := report.New("Figure 2 — Server-side certificate chain topologies",
		"Case", "Topology (child<-issuer by list position)", "Paths", "Dup", "Irrelevant", "Reversed")
	for _, c := range cases {
		g := topo.Build(c.list)
		rev, _ := g.ReversedSequences()
		t.Addf(c.label, g.String(), len(g.Paths()), report.Mark(g.HasDuplicates()),
			len(g.IrrelevantNodes()), report.Mark(rev))
	}
	return t
}
