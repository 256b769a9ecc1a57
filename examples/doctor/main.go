// Doctor example: diagnose and repair a broken deployment.
//
// The example deploys the worst chain the paper's taxonomy allows — reversed
// bundle, duplicated leaf, a stale renewal leftover and a stray root — shows
// a client's construction *trace* (the decisions the paper had to infer from
// source code), then repairs the deployment with the §6-recommendations
// fixer and proves every client model accepts the result.
//
// Run with: go run ./examples/doctor
package main

import (
	"fmt"
	"log"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/chainfix"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/rootstore"
)

func main() {
	root, err := certgen.NewRoot("Doctor Root")
	if err != nil {
		log.Fatal(err)
	}
	ca2, err := root.NewIntermediate("Doctor CA 2")
	if err != nil {
		log.Fatal(err)
	}
	ca1, err := ca2.NewIntermediate("Doctor CA 1")
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca1.NewLeaf("doctor.example")
	if err != nil {
		log.Fatal(err)
	}
	stale, err := ca1.NewLeaf("doctor.example",
		certgen.WithValidity(certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
	if err != nil {
		log.Fatal(err)
	}
	stray, err := certgen.NewRoot("Stray Root")
	if err != nil {
		log.Fatal(err)
	}

	// The patient: duplicated leaf up front, stale renewal leftover, the
	// bundle pasted in reverse, a stray root at the end.
	sick := []*certmodel.Certificate{
		leaf.Cert, leaf.Cert, stale.Cert, root.Cert, ca2.Cert, ca1.Cert, stray.Cert,
	}
	roots := rootstore.NewWith("doctor", root.Cert)

	fmt.Println("deployed list:")
	for i, c := range sick {
		fmt.Printf("  [%d] %s (serial %s)\n", i, c.Subject, c.SerialNumber)
	}

	// Diagnose: watch a capable client work through the mess.
	trust := core.Trust{Roots: roots, Now: certgen.Reference}
	trace := &pathbuild.Trace{}
	chrome := clients.Chrome()
	b := trust.Builder(chrome)
	b.Trace = trace
	out := b.Build(sick, "doctor.example")
	fmt.Printf("\n%s verdict: OK=%v (candidates considered: %d)\n", chrome.Name, out.OK(), out.CandidatesConsidered)
	fmt.Println("construction trace:")
	fmt.Println(trace)

	// Treat: repair the deployment.
	fixer := &chainfix.Fixer{Roots: roots}
	res, err := fixer.Fix(sick, "doctor.example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrepair actions:")
	for _, a := range res.Actions {
		fmt.Printf("  - %s\n", a)
	}
	fmt.Println("repaired list:")
	for i, c := range res.List {
		fmt.Printf("  [%d] %s\n", i, c.Subject)
	}

	// Verify: every client model must now accept it.
	fmt.Println("\npost-repair verdicts:")
	for _, p := range core.Profiles {
		v := trust.Builder(p).Build(res.List, "doctor.example")
		status := "PASS"
		if !v.OK() {
			status = "FAIL"
		}
		fmt.Printf("  %-10s %s\n", p.Name, status)
	}
}
