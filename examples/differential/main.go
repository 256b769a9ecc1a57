// Differential example: one malformed chain, eight client models.
//
// The example deploys an incomplete chain (missing intermediate, AIA
// available) and shows how each TLS client model handles it — reproducing
// finding I-4 in miniature: AIA-capable clients and cache-warm Firefox
// succeed, plain libraries fail.
//
// Run with: go run ./examples/differential
package main

import (
	"fmt"
	"log"

	"chainchaos/internal/aia"
	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/core"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
)

func main() {
	root, err := certgen.NewRoot("Diff Root")
	if err != nil {
		log.Fatal(err)
	}
	ca2, err := root.NewIntermediate("Diff CA 2")
	if err != nil {
		log.Fatal(err)
	}
	const uri = "http://repo.diff.example/ca2.der"
	ca1, err := ca2.NewIntermediate("Diff CA 1", certgen.WithAIA(uri))
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca1.NewLeaf("differential.example")
	if err != nil {
		log.Fatal(err)
	}

	// The server ships only the leaf and its direct issuer; CA 2 must be
	// fetched (or recalled from cache).
	deployed := []*certmodel.Certificate{leaf.Cert, ca1.Cert}
	repo := aia.NewRepository()
	repo.Put(uri, ca2.Cert)
	roots := rootstore.NewWith("diff", root.Cert)

	// Firefox's intermediate cache has seen CA 2 before.
	warmCache := rootstore.New("firefox-cache")
	warmCache.Add(ca2.Cert)

	fmt.Println("deployed: leaf + issuing CA only; CA 2 retrievable via AIA")
	t := report.New("differential verdicts", "Client", "Kind", "Result", "Path length", "AIA fetches", "Why")
	trust := core.Trust{Roots: roots, Fetcher: repo, Warm: warmCache, Now: certgen.Reference}
	for _, p := range core.Profiles {
		out := trust.Builder(p).Build(deployed, "differential.example")
		why := "-"
		switch {
		case out.Err != nil:
			why = out.Err.Error()
		case !out.Validation.OK:
			why = out.Validation.Findings[0].String()
		case out.AIAFetches > 0:
			why = "completed via AIA"
		case p.Policy.UseCache:
			why = "completed from intermediate cache"
		}
		result := "PASS"
		if !out.OK() {
			result = "FAIL"
		}
		t.Addf(p.Name, p.Kind, result, len(out.Path), out.AIAFetches, why)
	}
	fmt.Println(t)
}
