// CA-delivery example: how reversed chains are born.
//
// The example walks the full deployment pipeline for two CAs — an automated
// one delivering a fullchain file, and a GoGetSSL-style reseller delivering
// a reversed ca-bundle — through two administrator behaviours and two HTTP
// server models, then shows what lands on the wire and which clients cope.
//
// Run with: go run ./examples/cadelivery
package main

import (
	"fmt"
	"slices"
	"time"

	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/core"
	"chainchaos/internal/httpserver"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/topo"
)

func main() {
	base := time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

	// The first reseller whose ca-bundle comes reversed, and the first
	// automated CA that delivers a fullchain file.
	profiles := ca.Profiles()
	reseller := profiles[slices.IndexFunc(profiles, func(p ca.Profile) bool { return p.BundleReversed })]
	automated := profiles[slices.IndexFunc(profiles, func(p ca.Profile) bool {
		return p.AutomaticManagement && p.ProvidesFullchain
	})]

	fmt.Println("--- Case 1: reseller delivers the ca-bundle in reverse order ---")
	iss := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: reseller, Base: base, Tag: "demo"})
	delivery := iss.Issue("shop.example", base, base.AddDate(1, 0, 0), ca.LeafOptions{})

	fmt.Println("files received from the CA:")
	fmt.Printf("  CertificateFile.pem: %s\n", delivery.Leaf.Subject)
	for i, c := range delivery.Bundle {
		fmt.Printf("  Ca-bundle.pem[%d]:    %s\n", i, c.Subject)
	}

	// The administrator pastes both files into Nginx's fullchain without
	// reordering — the naive merge the paper blames for most reversals.
	nginx := httpserver.Nginx()
	wire, err := nginx.Deploy(httpserver.ConfigInput{
		Fullchain:     append([]*certmodel.Certificate{delivery.Leaf}, delivery.Bundle...),
		PrivateKeyFor: delivery.Leaf,
	})
	if err != nil {
		fmt.Println("deploy error:", err)
		return
	}
	g := topo.Build(wire)
	rev, _ := g.ReversedSequences()
	fmt.Printf("\ndeployed wire list topology: %s (reversed: %v)\n", g, rev)

	roots := rootstore.NewWith("demo", iss.Root)
	verdicts(wire, "shop.example", roots, base)

	fmt.Println("\n--- Case 2: duplicate leaf on Apache vs Azure ---")
	iss2 := ca.NewSyntheticIssuer(ca.IssuerConfig{Profile: automated, Base: base, Tag: "demo2"})
	d2 := iss2.Issue("blog.example", base, base.AddDate(0, 3, 0), ca.LeafOptions{})
	// The admin misreads SF1 and pastes the leaf into the chain file too.
	// Each model gets the upload in its own file scheme (Deploy rejects a
	// fullchain handed to a split-scheme server).
	for _, model := range []httpserver.Model{httpserver.ApacheOld(), httpserver.AzureAppGateway()} {
		in := httpserver.ConfigInput{PrivateKeyFor: d2.Leaf}
		if model.Scheme == httpserver.SchemeSplit {
			in.CertFile = []*certmodel.Certificate{d2.Leaf}
			in.ChainFile = append([]*certmodel.Certificate{d2.Leaf}, correctBundle(iss2)...)
		} else {
			in.Fullchain = append([]*certmodel.Certificate{d2.Leaf, d2.Leaf}, correctBundle(iss2)...)
		}
		wire, err := model.Deploy(in)
		switch {
		case err != nil:
			fmt.Printf("  %-38s rejected upload: %v\n", model.Name, err)
		default:
			g := topo.Build(wire)
			fmt.Printf("  %-38s deployed %d certs (duplicates: %v)\n", model.Name, len(wire), g.HasDuplicates())
		}
	}
}

func correctBundle(iss *ca.Issuer) []*certmodel.Certificate {
	return []*certmodel.Certificate{iss.Intermediates[1], iss.Intermediates[0]}
}

func verdicts(wire []*certmodel.Certificate, domain string, roots *rootstore.Store, now time.Time) {
	t := report.New("client verdicts on the deployed chain", "Client", "Result")
	trust := core.Trust{Roots: roots, Now: now}
	for _, p := range core.Profiles {
		out := trust.Builder(p).Build(wire, domain)
		res := "PASS"
		if !out.OK() {
			res = "FAIL"
		}
		t.Add(p.Name, res)
	}
	fmt.Println(t)
}
